#include "diag/processor.hpp"

#include <algorithm>

#include "analysis/lint.hpp"
#include "analysis/verify.hpp"
#include "common/log.hpp"
#include "fault/controller.hpp"

namespace diag::core
{

DiagProcessor::DiagProcessor(DiagConfig cfg)
    : cfg_(std::move(cfg)), mh_(cfg_.mem, 1), bus_("diag_bus"),
      stats_("diag")
{
    fatal_if(cfg_.total_clusters % cfg_.num_rings != 0,
             "%u clusters do not split evenly over %u rings",
             cfg_.total_clusters, cfg_.num_rings);
    for (unsigned r = 0; r < cfg_.num_rings; ++r)
        rings_.push_back(
            std::make_unique<Ring>(cfg_, r, mh_, bus_, stats_));
}

sim::RunStats
DiagProcessor::run(const Program &prog, u64 max_insts)
{
    return runThreads(prog, {ThreadSpec{prog.entry, {}}}, max_insts);
}

void
DiagProcessor::beginRun(const Program &prog)
{
    // Stale-program guard: a reused processor handed a different
    // Program used to keep executing whichever image was loaded first
    // (runThreads only loaded when nothing was loaded yet). Reload
    // from scratch on mismatch; an identical program keeps the current
    // image so inputs placed via memory() survive.
    const bool stale =
        program_loaded_ && prog.fingerprint() != program_hash_;
    if (stale) {
        mem_ = SparseMemory{};
        warmed_ = false;
    }
    if (!program_loaded_ || stale)
        loadProgram(prog);
    // Per-run isolation: a second run() used to fold the first run's
    // counters into its RunStats (rs.counters started from the
    // accumulated stats_) and to inherit its cache, bus, and ring
    // state. Reset to the post-load state — re-warming if the caller
    // warmed — so run-twice equals run-once. The first run skips all
    // of this and is bit-identical to a fresh processor's.
    if (ran_) {
        for (auto &ring : rings_)
            ring->reset();
        bus_.reset();
        mh_.reset();
        stats_.clear(false);
        if (warmed_)
            warmCaches();
    }
    ran_ = true;
}

void
DiagProcessor::attachFaults(fault::FaultController *fc)
{
    faults_ = fc;
    for (auto &ring : rings_)
        ring->setFaultController(fc);
}

void
DiagProcessor::attachCancel(const host::CancelToken *t)
{
    for (auto &ring : rings_)
        ring->setCancelToken(t);
}

void
DiagProcessor::attachTrace(trace::Tracer *t)
{
    trc_ = t;
    for (auto &ring : rings_)
        ring->setTracer(t);
    mh_.setTracer(t);
    if (t)
        t->setClusters(cfg_.total_clusters);
}

void
DiagProcessor::attachAddrTrace(trace::AddrTrace *t)
{
    for (auto &ring : rings_)
        ring->setAddrTrace(t);
}

void
DiagProcessor::lintStrict(const Program &prog,
                          const std::vector<ThreadSpec> &threads) const
{
    analysis::LintOptions opt;
    opt.line_bytes = cfg_.pes_per_cluster * 4;
    opt.clusters_per_ring = cfg_.clustersPerRing();
    opt.simt_enabled = cfg_.simt_enabled;
    // A lane is entry-defined only if every thread initializes it.
    opt.entry_defined.set();
    for (const ThreadSpec &spec : threads) {
        analysis::RegSet regs;
        for (const auto &[reg, value] : spec.init_regs)
            regs.set(reg);
        opt.entry_defined &= regs;
    }
    const analysis::LintResult lint = analysis::lintProgram(prog, opt);
    if (lint.errors() > 0) {
        analysis::LintResult errors_only;
        for (const analysis::Diagnostic &d : lint.diags)
            if (d.severity == analysis::Severity::Error)
                errors_only.diags.push_back(d);
        fatal("program rejected by the static analyzer:\n%s",
              analysis::renderText(errors_only).c_str());
    }
}

void
DiagProcessor::verifyStrict(const Program &prog,
                            const std::vector<ThreadSpec> &threads) const
{
    analysis::VerifyOptions opt;
    opt.lint.line_bytes = cfg_.pes_per_cluster * 4;
    opt.lint.clusters_per_ring = cfg_.clustersPerRing();
    opt.lint.simt_enabled = cfg_.simt_enabled;
    opt.lint.entry_defined.set();
    for (const ThreadSpec &spec : threads) {
        analysis::RegSet regs;
        for (const auto &[reg, value] : spec.init_regs)
            regs.set(reg);
        opt.lint.entry_defined &= regs;
    }
    const analysis::VerifyResult res =
        analysis::verifyProgram(prog, opt);
    if (!res.clean())
        fatal("program rejected by the verifier:\n%s",
              analysis::renderVerifyText(res).c_str());
}

sim::RunStats
DiagProcessor::runThreads(const Program &prog,
                          const std::vector<ThreadSpec> &threads,
                          u64 max_insts)
{
    if (cfg_.lint_enabled)
        lintStrict(prog, threads);
    if (cfg_.verify_enabled)
        verifyStrict(prog, threads);
    fatal_if(faults_ && faults_->lockstepEnabled() &&
                 threads.size() > 1,
             "golden-lockstep checking shadows a single retirement "
             "stream; run one thread");
    beginRun(prog);
    results_.clear();
    sim::RunStats rs;
    rs.halted = true;
    Cycle finish = 0;
    // When there are more threads than rings, later waves start on a
    // ring only after its previous thread finished.
    std::vector<Cycle> ring_free(rings_.size(), 0);
    for (unsigned t = 0; t < threads.size(); ++t) {
        const ThreadSpec &spec = threads[t];
        LaneFile regs{};
        for (const auto &[reg, value] : spec.init_regs) {
            panic_if(reg == 0 || reg >= isa::kNumRegs,
                     "bad init register %u", reg);
            regs[reg].value = value;
        }
        const unsigned r = t % rings_.size();
        Ring &ring = *rings_[r];
        const Cycle launch = ring_free[r];
        const ThreadResult tr = ring.runThread(spec.entry, regs, mem_,
                                               ring_free[r], max_insts);
        if (trc_)
            trc_->thread(static_cast<u8>(r), static_cast<u16>(t),
                         spec.entry, launch, tr.finish, tr.retired);
        ring_free[r] = tr.finish;
        if (tr.faulted)
            warn("thread %u faulted at pc 0x%x", t, tr.stop_pc);
        rs.halted = rs.halted && tr.halted;
        rs.timed_out = rs.timed_out || tr.timed_out;
        rs.faulted = rs.faulted || tr.faulted;
        rs.aborted = rs.aborted || tr.aborted;
        if (rs.stop_reason.empty() && !tr.stop_reason.empty())
            rs.stop_reason = detail::vformat(
                "thread %u: %s", t, tr.stop_reason.c_str());
        rs.instructions += tr.retired;
        finish = std::max(finish, tr.finish);
        results_.push_back(tr);
    }
    rs.cycles = finish;
    rs.counters = stats_;
    rs.counters.set("threads", static_cast<double>(threads.size()));
    rs.counters.set("bus_wait_cycles",
                    bus_.stats().get("wait_cycles"));
    rs.counters.set("bus_transfers", bus_.stats().get("transfers"));
    mh_.mergeStats(rs.counters);
    return rs;
}

u32
DiagProcessor::finalReg(unsigned thread, isa::RegId reg) const
{
    panic_if(thread >= results_.size(), "no result for thread %u",
             thread);
    if (reg == isa::kRegZero)
        return 0;
    return results_[thread].final_regs[reg].value;
}

} // namespace diag::core
