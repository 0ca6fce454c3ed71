/**
 * @file
 * OooProcessor: the multicore out-of-order baseline (paper §7.1's
 * 12-core, 8-issue configuration). API mirrors DiagProcessor so the
 * harness can drive both engines uniformly.
 */
#ifndef DIAG_OOO_PROCESSOR_HPP
#define DIAG_OOO_PROCESSOR_HPP

#include <memory>
#include <vector>

#include "asm/program.hpp"
#include "ooo/core.hpp"
#include "sim/run_stats.hpp"

namespace diag::ooo
{

/** Initial state for one software thread (same shape as DiAG's). */
struct ThreadSpec
{
    Addr entry = 0;
    std::vector<std::pair<isa::RegId, u32>> init_regs;
};

/** The full baseline chip: N cores over private L1s and a shared L2. */
class OooProcessor
{
  public:
    explicit OooProcessor(OooConfig cfg);

    SparseMemory &memory() { return mem_; }
    const OooConfig &config() const { return cfg_; }

    /** Load the image now so inputs can be initialized before run().
     *  Records the program's fingerprint so a later run() with a
     *  *different* Program reloads instead of executing a stale
     *  image (same contract as DiagProcessor::loadProgram). */
    void
    loadProgram(const Program &prog)
    {
        prog.loadInto(mem_);
        program_loaded_ = true;
        program_hash_ = prog.fingerprint();
    }

    /** Pre-install the memory image into the shared L2 (steady-state
     *  warmup; identical methodology to DiagProcessor::warmCaches). */
    void
    warmCaches()
    {
        mem_.forEachPage([&](Addr base) {
            for (Addr off = 0; off < SparseMemory::kPageSize; off += 64)
                mh_.warmLine(base + off);
        });
        warmed_ = true;
    }

    /** Attach (or detach with nullptr) a cooperative cancellation
     *  token; forwards to every core (same contract as DiAG). */
    void
    attachCancel(const host::CancelToken *t)
    {
        for (auto &core : cores_)
            core->setCancelToken(t);
    }

    /** Run single-threaded on core 0. */
    sim::RunStats run(const Program &prog, u64 max_insts = 500'000'000);

    /** Run one thread per spec; thread t executes on core t % cores. */
    sim::RunStats runThreads(const Program &prog,
                             const std::vector<ThreadSpec> &threads,
                             u64 max_insts = 500'000'000);

    /** Architectural register of thread @p t after a run. */
    u32 finalReg(unsigned thread, isa::RegId reg) const;

  private:
    /**
     * Per-run setup, mirroring DiagProcessor::beginRun: reload when
     * handed a different program, and — on every run after the first —
     * reset cores, hierarchy, and counters (re-warming if the caller
     * warmed) so each run() reports per-run deltas. The first run is
     * left untouched and bit-identical to a fresh processor's.
     */
    void beginRun(const Program &prog);

    OooConfig cfg_;
    SparseMemory mem_;
    mem::MemHierarchy mh_;
    OooCounters counters_;
    std::vector<std::unique_ptr<OooCore>> cores_;
    std::vector<CoreResult> results_;
    bool program_loaded_ = false;
    bool warmed_ = false;  //!< warmCaches() called (re-warm each run)
    bool ran_ = false;     //!< a run completed (reset before the next)
    u64 program_hash_ = 0; //!< fingerprint of the loaded program
};

} // namespace diag::ooo

#endif // DIAG_OOO_PROCESSOR_HPP
