#include "ooo/processor.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace diag::ooo
{

OooProcessor::OooProcessor(OooConfig cfg)
    : cfg_(std::move(cfg)), mh_(cfg_.mem, cfg_.cores)
{
    for (unsigned c = 0; c < cfg_.cores; ++c)
        cores_.push_back(
            std::make_unique<OooCore>(cfg_, c, mh_, counters_));
}

sim::RunStats
OooProcessor::run(const Program &prog, u64 max_insts)
{
    return runThreads(prog, {ThreadSpec{prog.entry, {}}}, max_insts);
}

void
OooProcessor::beginRun(const Program &prog)
{
    // Stale-program guard: a reused processor handed a different
    // Program used to keep executing whichever image was loaded first.
    const bool stale =
        program_loaded_ && prog.fingerprint() != program_hash_;
    if (stale) {
        mem_ = SparseMemory{};
        warmed_ = false;
    }
    if (!program_loaded_ || stale)
        loadProgram(prog);
    // Per-run isolation: a second run() used to fold the first run's
    // counters into its RunStats and to inherit its decoded-inst,
    // FU-calendar, and cache state. Reset to the post-load state so
    // run-twice equals run-once; the first run skips all of this and
    // is bit-identical to a fresh processor's.
    if (ran_) {
        for (auto &core : cores_)
            core->reset();
        mh_.reset();
        counters_.reset();
        if (warmed_)
            warmCaches();
    }
    ran_ = true;
}

sim::RunStats
OooProcessor::runThreads(const Program &prog,
                         const std::vector<ThreadSpec> &threads,
                         u64 max_insts)
{
    beginRun(prog);
    results_.clear();
    sim::RunStats rs;
    rs.halted = true;
    Cycle finish = 0;
    // Later waves start on a core after its previous thread finished.
    std::vector<Cycle> core_free(cores_.size(), 0);
    for (unsigned t = 0; t < threads.size(); ++t) {
        const ThreadSpec &spec = threads[t];
        const unsigned c = t % cores_.size();
        OooCore &core = *cores_[c];
        const CoreResult cr = core.runThread(
            spec.entry, spec.init_regs, mem_, core_free[c], max_insts);
        core_free[c] = cr.finish;
        if (cr.faulted)
            warn("ooo thread %u faulted at pc 0x%x", t, cr.stop_pc);
        rs.halted = rs.halted && cr.halted;
        rs.timed_out = rs.timed_out || cr.timed_out;
        rs.faulted = rs.faulted || cr.faulted;
        if (rs.stop_reason.empty() && !cr.stop_reason.empty())
            rs.stop_reason = detail::vformat(
                "thread %u: %s", t, cr.stop_reason.c_str());
        rs.instructions += cr.retired;
        finish = std::max(finish, cr.finish);
        results_.push_back(cr);
    }
    rs.cycles = finish;
    // The run report: every nonzero counter, plus the always-present
    // threads.
    rs.counters = StatGroup("ooo");
    counters_.emit(rs.counters);
    mh_.emitCounters(rs.counters);
    rs.counters.set("threads", static_cast<double>(threads.size()));
    return rs;
}

u32
OooProcessor::finalReg(unsigned thread, isa::RegId reg) const
{
    panic_if(thread >= results_.size(), "no result for thread %u",
             thread);
    if (reg == isa::kRegZero)
        return 0;
    return results_[thread].regs[reg];
}

} // namespace diag::ooo
