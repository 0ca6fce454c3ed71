/**
 * @file
 * The processor shell both engines share. It owns the memory image,
 * the shared memory hierarchy, the engine's counter set and one unit
 * per hardware thread context (a DiAG ring or an OoO core), and it
 * drives them the same way for both: load and warm the image, isolate
 * each run from the previous one, launch software threads in waves
 * over the units, and write one run report. The engines differ only
 * in their units and in the hooks below.
 */
#ifndef DIAG_SIM_PROCESSOR_HPP
#define DIAG_SIM_PROCESSOR_HPP

#include <algorithm>
#include <memory>
#include <vector>

#include "asm/program.hpp"
#include "common/log.hpp"
#include "host/cancel.hpp"
#include "mem/hierarchy.hpp"
#include "sim/run_stats.hpp"

namespace diag::sim
{

/**
 * A processor over units of type @p Unit. A unit names its engine's
 * Config and Counters types and provides reset(), setCancelToken() and
 * runThread(entry, init_regs, mem, start_cycle, max_insts) returning a
 * ThreadResult, stopping under boundaryStop()'s rules; the shell
 * reports a spent instruction budget. An engine's processor derives
 * from the shell, builds its units in its constructor and overrides
 * the hooks for what only it has.
 */
template <class Unit>
class Processor
{
  public:
    using Config = typename Unit::Config;
    using Counters = typename Unit::Counters;

    Processor(const Processor &) = delete;
    Processor &operator=(const Processor &) = delete;
    virtual ~Processor() = default;

    /** The functional memory image (set inputs before run()). */
    SparseMemory &memory() { return mem_; }
    const SparseMemory &memory() const { return mem_; }

    const Config &config() const { return cfg_; }

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

    /**
     * Attach (or detach with nullptr) a cooperative cancellation
     * token (host::CancelToken): every unit polls it and a fired token
     * stops the run with a structured timeout (stop_reason "host
     * watchdog: ..."). The caller keeps ownership; the token must
     * outlive the run.
     */
    void
    attachCancel(const host::CancelToken *t)
    {
        for (auto &unit : units_)
            unit->setCancelToken(t);
    }

    /** Run @p prog single-threaded on unit 0. Loads the program image
     *  into memory first. */
    RunStats
    run(const Program &prog, u64 max_insts = 500'000'000)
    {
        return runThreads(prog, {ThreadSpec{prog.entry, {}}}, max_insts);
    }

    /**
     * Run one thread per spec; thread t executes on unit t % units,
     * launching when that unit's previous thread finished. Total
     * cycles = latest finish across threads. Threads must touch
     * disjoint writable data (the paper's parallelizable workloads).
     */
    RunStats runThreads(const Program &prog,
                        const std::vector<ThreadSpec> &threads,
                        u64 max_insts = 500'000'000);

    /** Architectural register value of thread @p t after a run. */
    u32
    finalReg(unsigned thread, isa::RegId reg) const
    {
        panic_if(thread >= results_.size(), "no result for thread %u",
                 thread);
        if (reg == isa::kRegZero)
            return 0;
        return results_[thread].regs[reg];
    }

  protected:
    /** @p engine names the run report; the hierarchy gets @p mem_ports
     *  L1 ports (one per core, or one the rings share). */
    Processor(Config cfg, const char *engine, unsigned mem_ports)
        : cfg_(std::move(cfg)), mh_(cfg_.mem, mem_ports), engine_(engine)
    {}

    /** Before a run's setup: reject what the engine cannot run. */
    virtual void
    checkRun(const Program &, const std::vector<ThreadSpec> &)
    {}

    /** Reset engine state the units share beyond the hierarchy. */
    virtual void resetShared() {}

    /** After thread @p t ran on unit @p unit from @p launch. */
    virtual void
    onThread(unsigned, unsigned, const ThreadSpec &, Cycle,
             const ThreadResult &)
    {}

    /** Add the engine's own keys to the run report. */
    virtual void emitShared(StatGroup &) const {}

    Config cfg_;
    mem::MemHierarchy mh_;
    Counters counters_;
    std::vector<std::unique_ptr<Unit>> units_;

  private:
    /**
     * Per-run setup: load (or reload, if @p prog differs from the
     * loaded one) the program, and — on every run after the first —
     * reset the units, the shared state, the hierarchy and the
     * counters, re-warming if the caller warmed, so each run reports
     * per-run deltas from the same post-load, post-warm state. The
     * first run is left untouched so a freshly constructed processor
     * behaves exactly as before.
     */
    void beginRun(const Program &prog);

    const char *engine_;
    SparseMemory mem_;
    std::vector<ThreadResult> results_;
    bool program_loaded_ = false;
    bool warmed_ = false;  //!< warmCaches() called (re-warm each run)
    bool ran_ = false;     //!< a run completed (reset before the next)
    u64 program_hash_ = 0; //!< fingerprint of the loaded program
};

template <class Unit>
void
Processor<Unit>::beginRun(const Program &prog)
{
    // Stale-program guard: a reused processor handed a different
    // Program reloads from scratch; an identical program keeps the
    // current image so inputs placed via memory() survive.
    const bool stale =
        program_loaded_ && prog.fingerprint() != program_hash_;
    if (stale) {
        mem_ = SparseMemory{};
        warmed_ = false;
    }
    if (!program_loaded_ || stale)
        loadProgram(prog);
    // Per-run isolation: reset to the post-load state so run-twice
    // equals run-once.
    if (ran_) {
        for (auto &unit : units_)
            unit->reset();
        resetShared();
        mh_.reset();
        counters_.reset();
        if (warmed_)
            warmCaches();
    }
    ran_ = true;
}

template <class Unit>
RunStats
Processor<Unit>::runThreads(const Program &prog,
                            const std::vector<ThreadSpec> &threads,
                            u64 max_insts)
{
    checkRun(prog, threads);
    beginRun(prog);
    results_.clear();
    RunStats rs;
    rs.halted = true;
    // When there are more threads than units, later waves start on a
    // unit only after its previous thread finished.
    std::vector<Cycle> unit_free(units_.size(), 0);
    for (unsigned t = 0; t < threads.size(); ++t) {
        const ThreadSpec &spec = threads[t];
        for (const auto &[reg, value] : spec.init_regs)
            panic_if(reg == 0 || reg >= isa::kNumRegs,
                     "bad init register %u", reg);
        const unsigned u = t % units_.size();
        const Cycle launch = unit_free[u];
        ThreadResult tr = units_[u]->runThread(spec.entry, spec.init_regs,
                                               mem_, launch, max_insts);
        if (!tr.halted && !tr.faulted && !tr.timed_out && !tr.aborted) {
            tr.timed_out = true;  // the unit spent its budget
            tr.stop_reason = detail::vformat(
                "instruction budget exhausted (%llu retired)",
                static_cast<unsigned long long>(tr.retired));
        }
        onThread(u, t, spec, launch, tr);
        unit_free[u] = tr.finish;
        if (tr.faulted)
            warn("%s thread %u faulted at pc 0x%x", engine_, t,
                 tr.stop_pc);
        rs.halted = rs.halted && tr.halted;
        rs.timed_out = rs.timed_out || tr.timed_out;
        rs.faulted = rs.faulted || tr.faulted;
        rs.aborted = rs.aborted || tr.aborted;
        if (rs.stop_reason.empty() && !tr.stop_reason.empty())
            rs.stop_reason = detail::vformat(
                "thread %u: %s", t, tr.stop_reason.c_str());
        rs.instructions += tr.retired;
        rs.cycles = std::max(rs.cycles, tr.finish);
        results_.push_back(std::move(tr));
    }
    // The run report: every nonzero counter, plus the always-present
    // threads and the engine's own keys.
    rs.counters = StatGroup(engine_);
    counters_.emit(rs.counters);
    mh_.emitCounters(rs.counters);
    rs.counters.set("threads", static_cast<double>(threads.size()));
    emitShared(rs.counters);
    return rs;
}

} // namespace diag::sim

#endif // DIAG_SIM_PROCESSOR_HPP
