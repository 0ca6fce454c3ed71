#include "diag/processor.hpp"

#include "analysis/lint.hpp"
#include "analysis/verify.hpp"
#include "common/log.hpp"
#include "fault/controller.hpp"

namespace diag::core
{

namespace
{

/** Strict-mode analyzer options: the machine geometry, with a lane
 *  entry-defined only if every thread initializes it. */
analysis::LintOptions
strictLintOptions(const DiagConfig &cfg,
                  const std::vector<ThreadSpec> &threads)
{
    analysis::LintOptions opt;
    opt.line_bytes = cfg.pes_per_cluster * 4;
    opt.clusters_per_ring = cfg.clustersPerRing();
    opt.simt_enabled = cfg.simt_enabled;
    opt.entry_defined.set();
    for (const ThreadSpec &spec : threads) {
        analysis::RegSet regs;
        for (const auto &[reg, value] : spec.init_regs)
            regs.set(reg);
        opt.entry_defined &= regs;
    }
    return opt;
}

} // namespace

DiagProcessor::DiagProcessor(DiagConfig cfg)
    : Processor(std::move(cfg), "diag", 1)
{
    fatal_if(cfg_.total_clusters % cfg_.num_rings != 0,
             "%u clusters do not split evenly over %u rings",
             cfg_.total_clusters, cfg_.num_rings);
    for (unsigned r = 0; r < cfg_.num_rings; ++r)
        units_.push_back(
            std::make_unique<Ring>(cfg_, r, mh_, bus_, counters_));
}

void
DiagProcessor::attachFaults(fault::FaultController *fc)
{
    faults_ = fc;
    for (auto &ring : units_)
        ring->setFaultController(fc);
}

void
DiagProcessor::attachTrace(trace::Tracer *t)
{
    trc_ = t;
    for (auto &ring : units_)
        ring->setTracer(t);
    mh_.setTracer(t);
    if (t)
        t->setClusters(cfg_.total_clusters);
}

void
DiagProcessor::attachAddrTrace(trace::AddrTrace *t)
{
    for (auto &ring : units_)
        ring->setAddrTrace(t);
}

void
DiagProcessor::checkRun(const Program &prog,
                        const std::vector<ThreadSpec> &threads)
{
    if (cfg_.lint_enabled) {
        const analysis::LintResult lint =
            analysis::lintProgram(prog, strictLintOptions(cfg_, threads));
        if (lint.errors() > 0) {
            analysis::LintResult errors_only;
            for (const analysis::Diagnostic &d : lint.diags)
                if (d.severity == analysis::Severity::Error)
                    errors_only.diags.push_back(d);
            fatal("program rejected by the static analyzer:\n%s",
                  analysis::renderText(errors_only).c_str());
        }
    }
    fatal_if(faults_ && faults_->lockstepEnabled() &&
                 threads.size() > 1,
             "golden-lockstep checking shadows a single retirement "
             "stream; run one thread");
}

void
DiagProcessor::onThread(unsigned ring, unsigned thread,
                        const ThreadSpec &spec, Cycle launch,
                        const sim::ThreadResult &tr)
{
    if (trc_)
        trc_->thread(static_cast<u8>(ring), static_cast<u16>(thread),
                     spec.entry, launch, tr.finish, tr.retired);
}

void
DiagProcessor::emitShared(StatGroup &out) const
{
    const CounterSet<mem::BusCounter> &bus = bus_.counters();
    out.set("bus_transfers",
            static_cast<double>(bus[mem::BusCounter::transfers]));
    out.set("bus_wait_cycles",
            static_cast<double>(bus[mem::BusCounter::wait_cycles]));
}

} // namespace diag::core
