/**
 * @file
 * DiagProcessor: the full DiAG chip — dataflow rings over a shared
 * banked L1D / unified L2 hierarchy and the shared 512-bit bus.
 * Public entry point of the DiAG model.
 */
#ifndef DIAG_DIAG_PROCESSOR_HPP
#define DIAG_DIAG_PROCESSOR_HPP

#include <memory>
#include <vector>

#include "asm/program.hpp"
#include "diag/ring.hpp"
#include "sim/run_stats.hpp"

namespace diag::core
{

/** Initial state for one software thread. */
struct ThreadSpec
{
    Addr entry = 0;
    /** (unified register, value) pairs applied before start. */
    std::vector<std::pair<isa::RegId, u32>> init_regs;
};

/** A complete DiAG processor instance. */
class DiagProcessor
{
  public:
    explicit DiagProcessor(DiagConfig cfg);

    /** The functional memory image (set inputs before run()). */
    SparseMemory &memory() { return mem_; }

    /**
     * Load the program image now, so callers can initialize input data
     * on top of it before run()/runThreads() (which otherwise load the
     * image themselves and would overwrite such data with .space zeros).
     * Records the program's fingerprint: a later run() with a
     * *different* Program reloads memory from scratch instead of
     * silently executing the stale image.
     */
    void
    loadProgram(const Program &prog)
    {
        prog.loadInto(mem_);
        program_loaded_ = true;
        program_hash_ = prog.fingerprint();
    }

    /**
     * Pre-install every resident line of the memory image into the
     * shared L2 (steady-state warmup, as in the paper's methodology of
     * measuring kernels rather than cold starts). Call after
     * loadProgram() and input initialization.
     */
    void
    warmCaches()
    {
        mem_.forEachPage([&](Addr base) {
            for (Addr off = 0; off < SparseMemory::kPageSize; off += 64)
                mh_.warmLine(base + off);
        });
        warmed_ = true;
    }

    const DiagConfig &config() const { return cfg_; }

    /**
     * Attach (or detach with nullptr) a fault controller for the next
     * run: injection per its plan, parity/lockstep detection, and
     * checkpoint-rollback recovery in every ring. The caller keeps
     * ownership and reads the tally back after the run.
     */
    void attachFaults(fault::FaultController *fc);

    /**
     * Attach (or detach with nullptr) a tracer: every ring, the
     * activation engine, and the L1D banks emit typed events into it.
     * Purely observational — attaching a tracer never changes any
     * cycle the model computes. The caller keeps ownership and must
     * keep the tracer alive across the run; like the StatGroup, a
     * tracer is unsynchronized and must stay confined to the worker
     * that owns this processor (DESIGN.md §11).
     */
    void attachTrace(trace::Tracer *t);

    /**
     * Attach (or detach with nullptr) the stream validator's address
     * recorder: every ring records simt region launch parameters and
     * the effective address of each executed load/store inside regions
     * (DESIGN.md §14). Same contract as attachTrace — purely
     * observational, caller-owned, worker-confined.
     */
    void attachAddrTrace(trace::AddrTrace *t);

    /**
     * Attach (or detach with nullptr) a cooperative cancellation
     * token (host::CancelToken): every ring polls it at activation
     * boundaries and a fired token stops the run with a structured
     * timeout (stop_reason "host watchdog: ..."). The caller keeps
     * ownership; the token must outlive the run.
     */
    void attachCancel(const host::CancelToken *t);

    /**
     * Run @p prog single-threaded on ring 0. Loads the program image
     * into memory first.
     */
    sim::RunStats run(const Program &prog,
                      u64 max_insts = 500'000'000);

    /**
     * Run one thread per spec; thread t executes on ring t % rings.
     * Total cycles = latest finish across threads. Threads must touch
     * disjoint writable data (the paper's parallelizable workloads).
     */
    sim::RunStats runThreads(const Program &prog,
                             const std::vector<ThreadSpec> &threads,
                             u64 max_insts = 500'000'000);

    /** Architectural register value of thread @p t after a run. */
    u32 finalReg(unsigned thread, isa::RegId reg) const;

    /** Model-wide counters (activations, reuse, stalls, energy events). */
    const StatGroup &stats() const { return stats_; }

  private:
    /**
     * Per-run setup: load (or reload, if @p prog differs from the
     * loaded one) the program, and — on every run after the first —
     * reset rings, bus, hierarchy, and counters so each run() reports
     * per-run deltas from the same post-load, post-warm initial state
     * instead of folding in the previous run's counters and cache
     * contents. The first run is left untouched so a freshly
     * constructed processor behaves exactly as before.
     */
    void beginRun(const Program &prog);

    /** Strict-mode static lint: fatal() on error-level findings. */
    void lintStrict(const Program &prog,
                    const std::vector<ThreadSpec> &threads) const;

    /** Strict-mode verification (cfg.verify_enabled): fatal() when
     *  diag-verify refutes a safety property or proves a race. */
    void verifyStrict(const Program &prog,
                      const std::vector<ThreadSpec> &threads) const;

    DiagConfig cfg_;
    SparseMemory mem_;
    mem::MemHierarchy mh_;
    mem::Bus bus_;
    StatGroup stats_;
    std::vector<std::unique_ptr<Ring>> rings_;
    std::vector<ThreadResult> results_;
    bool program_loaded_ = false;
    bool warmed_ = false;  //!< warmCaches() called (re-warm each run)
    bool ran_ = false;     //!< a run completed (reset before the next)
    u64 program_hash_ = 0; //!< fingerprint of the loaded program
    fault::FaultController *faults_ = nullptr;
    trace::Tracer *trc_ = nullptr;  //!< null = tracing off
};

} // namespace diag::core

#endif // DIAG_DIAG_PROCESSOR_HPP
