#include "harness/runner.hpp"

#include <algorithm>
#include <iterator>
#include <set>
#include <type_traits>

#include "analysis/lint.hpp"
#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "diag/processor.hpp"
#include "energy/diag_energy.hpp"
#include "energy/ooo_energy.hpp"
#include "harness/table.hpp"
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

const PaperTable &
paperCells()
{
    static const PaperTable table = [] {
        PaperTable t;
        t.workloads = workloads::rodiniaSuite();
        for (Workload &w : workloads::specSuite())
            t.workloads.push_back(std::move(w));
        // The seven arrangements of §7.1–7.2, in perfbench's cell order.
        const std::vector<core::DiagConfig> st = diagSingleThreadConfigs();
        const std::pair<decltype(MatrixCell::cfg), RunSpec> arrangements[] = {
            {ooo::OooConfig::baseline8(), {1, false}},
            {st[0], {1, false}},
            {st[1], {1, false}},
            {st[2], {1, false}},
            {ooo::OooConfig::multicore12(), {kOooMtThreads, false}},
            {diagMultiThreadConfig(), {kDiagMtThreads, false}},
            {diagMtSimtConfig(), {kDiagMtSimtThreads, true}},
        };
        for (const Workload &w : t.workloads) {
            for (size_t a = 0; a < std::size(arrangements); ++a) {
                const auto &[cfg, spec] = arrangements[a];
                if (spec.use_simt && w.asm_simt.empty())
                    continue;
                const std::string &cfg_name = std::visit(
                    [](const auto &c) -> const std::string & {
                        return c.name;
                    },
                    cfg);
                t.cells.push_back({w.name + "/" + cfg_name + "/t" +
                                       std::to_string(spec.threads),
                                   a, {&w, spec, cfg}});
            }
        }
        enum : size_t { kBase, kF4C2, kF4C16, kF4C32, kMc12, kMt, kSimt };
        t.series = {
            {"fig9a", "F4C2", "rodinia", kBase, kF4C2, {}, false, 0.91},
            {"fig9a", "F4C16", "rodinia", kBase, kF4C16, {}, false, 1.12},
            {"fig9a", "F4C32", "rodinia", kBase, kF4C32, {}, false, 1.12},
            {"fig10a", "F4C2", "spec", kBase, kF4C2, {}, false, 0.81},
            {"fig10a", "F4C16", "spec", kBase, kF4C16, {}, false, 0.97},
            {"fig10a", "F4C32", "spec", kBase, kF4C32, {}, false, 0.97},
            {"fig9b", "MT", "rodinia", kMc12, kMt, {}, false, 0.95},
            {"fig9b", "MT+SIMT", "rodinia", kMc12, kSimt, kMt, false, 1.20},
            {"fig10b", "MT", "spec", kMc12, kMt, {}, false, 0.97},
            {"fig10b", "MT+SIMT", "spec", kMc12, kSimt, kMt, false, 1.15},
            {"fig12", "single-thread", "rodinia", kBase, kF4C32, {}, true,
             1.51},
            {"fig12", "multi-thread", "rodinia", kMc12, kMt, {}, true, 1.35},
            {"fig12", "MT+SIMT", "rodinia", kMc12, kSimt, kMt, true, 1.63},
        };
        return t;
    }();
    return table;
}

FigureRun
runFigure(const std::string &figure, unsigned jobs,
          const std::vector<std::string> &only)
{
    const PaperTable &t = paperCells();
    FigureRun f;
    for (const PaperSeries &s : t.series)
        if (s.figure == figure)
            f.series.push_back(&s);
    fatal_if(f.series.empty(), "no paper figure %s", figure.c_str());
    const auto cellOf = [&t](const Workload &w,
                             size_t a) -> const PaperCell * {
        for (const PaperCell &c : t.cells)
            if (c.run.w == &w && c.arrangement == a)
                return &c;
        return nullptr;
    };
    std::set<const PaperCell *> read;  // address order is table order
    f.points.resize(f.series.size());
    for (const Workload &w : t.workloads) {
        if (w.suite != f.series[0]->suite ||
            (!only.empty() &&
             std::find(only.begin(), only.end(), w.name) == only.end()))
            continue;
        for (size_t i = 0; i < f.series.size(); ++i) {
            const PaperSeries &s = *f.series[i];
            SeriesPoint p{cellOf(w, s.numerator), cellOf(w, s.denominator),
                          false, 0.0};
            if (p.denominator == nullptr) {
                p.fell_back = true;
                p.denominator = cellOf(w, s.fallback.value());
            }
            read.insert({p.numerator, p.denominator});
            f.points[i].push_back(p);
        }
    }
    std::vector<MatrixCell> matrix;
    for (const PaperCell *c : read)
        matrix.push_back(c->run);
    std::vector<EngineRun> runs = runMatrix(matrix, jobs);
    auto run = runs.begin();
    for (const PaperCell *c : read)
        f.runs.emplace(c->name, std::move(*run++));
    for (size_t i = 0; i < f.series.size(); ++i) {
        const auto metric = [&f, i](const PaperCell *c) {
            const EngineRun &r = f.runs.at(c->name);
            return f.series[i]->energy ? r.energy.totalPj()
                                       : static_cast<double>(r.stats.cycles);
        };
        std::vector<double> ratios;
        for (SeriesPoint &p : f.points[i]) {
            p.ratio = metric(p.numerator) / metric(p.denominator);
            ratios.push_back(p.ratio);
        }
        f.geomeans.push_back(geomean(ratios));
    }
    return f;
}

} // namespace diag::harness
