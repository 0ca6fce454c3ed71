#include "harness/runner.hpp"

#include <type_traits>

#include "analysis/lint.hpp"
#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "diag/processor.hpp"
#include "energy/diag_energy.hpp"
#include "energy/ooo_energy.hpp"
#include "host/parallel.hpp"
#include "ooo/processor.hpp"

namespace diag::harness
{

using workloads::Workload;

namespace
{

const std::string &
variantSource(const Workload &w, const RunSpec &spec)
{
    if (spec.use_simt) {
        fatal_if(w.asm_simt.empty(), "%s has no simt variant",
                 w.name.c_str());
        return w.asm_simt;
    }
    return w.asm_serial;
}

unsigned
effectiveThreads(const Workload &w, const RunSpec &spec)
{
    return w.partitionable ? spec.threads : 1;
}

/**
 * Strict lint: a bundled workload must be free of error-level static
 * findings before we spend cycles simulating it.
 */
void
lintOrDie(const Program &prog, const Workload &w)
{
    const analysis::LintResult lint =
        analysis::lintProgram(prog, analysis::LintOptions::abiEntry());
    if (lint.errors() > 0)
        fatal("workload %s rejected by the static analyzer:\n%s",
              w.name.c_str(), analysis::renderText(lint).c_str());
}

} // namespace

template <class Cfg>
EngineRun
runOn(const Cfg &cfg, const Workload &w, const RunSpec &spec)
{
    constexpr bool kDiag = std::is_same_v<Cfg, core::DiagConfig>;
    using Proc = std::conditional_t<kDiag, core::DiagProcessor,
                                    ooo::OooProcessor>;
    const char *engine = kDiag ? "diag" : "ooo";
    fatal_if(!kDiag && spec.use_simt,
             "the OoO baseline has no simt hardware");
    const Program prog = assembler::assemble(variantSource(w, spec));
    lintOrDie(prog, w);
    Proc proc(cfg);
    proc.loadProgram(prog);
    w.init(proc.memory());
    proc.warmCaches();  // steady-state methodology (paper §7.1)
    const unsigned threads = effectiveThreads(w, spec);
    std::vector<sim::ThreadSpec> specs;
    for (unsigned t = 0; t < threads; ++t)
        specs.push_back({prog.entry,
                         {{isa::RegId{10}, t},
                          {isa::RegId{11}, threads}}});
    EngineRun run;
    if constexpr (kDiag) {
        // Created here, inside the worker that owns `proc`, so the
        // unsynchronized recorders never cross a thread (DESIGN.md §11).
        if (spec.trace) {
            run.trace = std::make_shared<trace::Tracer>(*spec.trace);
            proc.attachTrace(run.trace.get());
        }
        if (spec.record_addrs) {
            run.addrs = std::make_shared<trace::AddrTrace>();
            proc.attachAddrTrace(run.addrs.get());
        }
    }
    proc.attachCancel(spec.cancel);
    run.stats = proc.runThreads(prog, specs, w.max_insts);
    if (!run.stats.halted) {
        const char *why = run.stats.stop_reason.empty()
                              ? "did not halt"
                              : run.stats.stop_reason.c_str();
        fatal_if(!spec.tolerate_failures, "%s run of %s stopped: %s",
                 engine, w.name.c_str(), why);
        warn("%s run of %s stopped: %s", engine, w.name.c_str(), why);
    } else {
        run.checked = w.check(proc.memory());
        fatal_if(!run.checked && !spec.tolerate_failures,
                 "%s run of %s failed its output check", engine,
                 w.name.c_str());
    }
    if constexpr (kDiag)
        run.energy = energy::diagEnergy(cfg, run.stats);
    else
        run.energy = energy::oooEnergy(cfg, run.stats);
    return run;
}

template EngineRun runOn(const core::DiagConfig &, const Workload &,
                         const RunSpec &);
template EngineRun runOn(const ooo::OooConfig &, const Workload &,
                         const RunSpec &);

std::vector<EngineRun>
runMatrix(const std::vector<MatrixCell> &cells, unsigned jobs)
{
    return host::parallelMap<EngineRun>(
        jobs, cells.size(), [&cells](size_t i) {
            const MatrixCell &c = cells[i];
            panic_if(c.w == nullptr, "matrix cell %zu has no workload",
                     i);
            return std::visit(
                [&c](const auto &cfg) { return runOn(cfg, *c.w, c.spec); },
                c.cfg);
        });
}

std::vector<core::DiagConfig>
diagSingleThreadConfigs()
{
    return {core::DiagConfig::f4c2(), core::DiagConfig::f4c16(),
            core::DiagConfig::f4c32()};
}

core::DiagConfig
diagMultiThreadConfig()
{
    core::DiagConfig cfg = core::DiagConfig::f4c32();
    cfg.name = "F4C32-16x2";
    cfg.num_rings = 16;
    return cfg;
}

core::DiagConfig
diagMtSimtConfig()
{
    core::DiagConfig cfg = core::DiagConfig::f4c32();
    cfg.name = "F4C32-8x4-simt";
    cfg.num_rings = 8;
    return cfg;
}

} // namespace diag::harness
