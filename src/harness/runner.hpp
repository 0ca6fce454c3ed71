/**
 * @file
 * Experiment runner: executes workloads on the DiAG model and the OoO
 * baseline under the paper's configurations, validates outputs, and
 * returns cycles + energy for the table/figure benches. The figure
 * cells and the paper's series over them are named once, in
 * paperCells().
 */
#ifndef DIAG_HARNESS_RUNNER_HPP
#define DIAG_HARNESS_RUNNER_HPP

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "diag/config.hpp"
#include "energy/report.hpp"
#include "host/cancel.hpp"
#include "ooo/config.hpp"
#include "sim/run_stats.hpp"
#include "trace/addr_trace.hpp"
#include "trace/tracer.hpp"
#include "workloads/workload.hpp"

namespace diag::harness
{

/** How to execute a workload. */
struct RunSpec
{
    unsigned threads = 1;   //!< software threads (a1 value)
    bool use_simt = false;  //!< run the simt-annotated variant
    /** Return failed runs (timeout/trap/check miss) to the caller
     *  instead of fatal()ing — campaign/CLI drivers classify them. */
    bool tolerate_failures = false;
    /** When set, runOnDiag creates a Tracer with this configuration
     *  inside the owning worker, attaches it for the run, and returns
     *  it in EngineRun::trace — the confinement pattern that keeps
     *  traces byte-identical for any --jobs value (DESIGN.md §11).
     *  The pointee must outlive the run. Ignored by the OoO baseline
     *  (no trace hooks). */
    const trace::TraceConfig *trace = nullptr;
    /** When true, runOnDiag creates a trace::AddrTrace inside the
     *  owning worker, attaches it for the run, and returns it in
     *  EngineRun::addrs — the per-instruction address log the stream
     *  validator replays against predicted affine maps (DESIGN.md
     *  §14). Same confinement rules as `trace`. Ignored by the OoO
     *  baseline. */
    bool record_addrs = false;
    /** When set, the engine polls this token at activation boundaries
     *  and a fired token (explicit cancel or expired wall-clock
     *  deadline) stops the run with RunStats::timed_out and a
     *  "host watchdog: ..." stop_reason. Pair with tolerate_failures
     *  so the stop comes back to the caller instead of fatal()ing.
     *  The pointee must outlive the run. */
    const host::CancelToken *cancel = nullptr;
};

/** One engine execution result. */
struct EngineRun
{
    sim::RunStats stats;
    energy::EnergyReport energy;
    bool checked = false;  //!< output check passed
    /** The run's tracer when RunSpec::trace was set (else null). Only
     *  read it after the owning worker completed — i.e. after
     *  runOnDiag/runMatrix returned. */
    std::shared_ptr<trace::Tracer> trace;
    /** The run's address log when RunSpec::record_addrs was set (else
     *  null). Same read-after-worker rule as `trace`. */
    std::shared_ptr<trace::AddrTrace> addrs;
};

/**
 * Run @p w on the engine @p cfg configures: DiAG for a
 * core::DiagConfig, the OoO baseline for an ooo::OooConfig. Every run
 * takes the same steps: assemble, lint, construct, load, init inputs,
 * warm, run, check the output, energy.
 */
template <class Cfg>
EngineRun runOn(const Cfg &cfg, const workloads::Workload &w,
                const RunSpec &spec);

/** Run @p w on a DiAG configuration. */
inline EngineRun
runOnDiag(const core::DiagConfig &cfg, const workloads::Workload &w,
          const RunSpec &spec)
{
    return runOn(cfg, w, spec);
}

/** Run @p w on the OoO baseline. */
inline EngineRun
runOnOoo(const ooo::OooConfig &cfg, const workloads::Workload &w,
         const RunSpec &spec)
{
    return runOn(cfg, w, spec);
}

/**
 * One cell of a host-parallel execution matrix: a (workload, engine
 * configuration, run spec) triple. The workload pointer must outlive
 * runMatrix(); cells share it read-only.
 */
struct MatrixCell
{
    const workloads::Workload *w = nullptr;
    RunSpec spec;
    /** The engine to run on: DiAG or the OoO baseline. */
    std::variant<core::DiagConfig, ooo::OooConfig> cfg;
};

/**
 * Execute every cell on up to @p jobs host threads (0 = one per
 * hardware thread), each cell on its own simulator instance, and
 * return results in cell order regardless of the job count. This is
 * the fan-out path of the figure benches and sweep drivers.
 */
std::vector<EngineRun> runMatrix(const std::vector<MatrixCell> &cells,
                                 unsigned jobs);

// ---- configuration presets used by the figures ----

/** DiAG single-thread configs for Fig. 9a/10a: F4C2/F4C16/F4C32. */
std::vector<core::DiagConfig> diagSingleThreadConfigs();

/**
 * The paper's multi-thread arrangement (§7.2.1): "16-by-2 format",
 * each thread on a dataflow ring with two clusters to alternate.
 */
core::DiagConfig diagMultiThreadConfig();

/**
 * The MT+SIMT arrangement: rings are chained pairwise (§5.1: "multiple
 * rings can be chained together to form a larger ring") giving 8 rings
 * of 4 clusters so pipelined regions up to 64 instructions fit.
 */
core::DiagConfig diagMtSimtConfig();

/** Thread counts used for the MT figures. */
inline constexpr unsigned kDiagMtThreads = 16;
inline constexpr unsigned kDiagMtSimtThreads = 8;
inline constexpr unsigned kOooMtThreads = 12;  // 12-core baseline

// ---- the paper's figure cells (Figs 9a/9b/10a/10b/12) ----

/** One figure cell: a workload on one arrangement of paper §7.1–7.2. */
struct PaperCell
{
    std::string name;    //!< `<workload>/<config name>/t<threads>`
    size_t arrangement;  //!< which of the seven, in perfbench's order
    MatrixCell run;
};

/**
 * One average the paper reports: on each workload of its suite, the
 * numerator (baseline) arrangement's cycles or energy over the
 * denominator (DiAG) arrangement's, and the geomean of those ratios.
 * A workload without a denominator cell (no simt variant) divides by
 * its fallback arrangement's cell, as the paper draws the MT bar there.
 */
struct PaperSeries
{
    std::string figure;  //!< "fig9a", "fig9b", "fig10a", "fig10b", "fig12"
    std::string label;   //!< e.g. "F4C32", "MT+SIMT"
    std::string suite;   //!< Workload::suite of its workloads
    size_t numerator;                //!< arrangement: the baseline
    size_t denominator;              //!< arrangement: DiAG
    std::optional<size_t> fallback;  //!< arrangement: no-simt stand-in
    bool energy;   //!< compare total energy, not cycles
    double paper;  //!< the paper's reported value
};

/** Every Fig 9a/9b/10a/10b/12 cell named once, and the paper's 13
 *  series over them. */
struct PaperTable
{
    std::vector<workloads::Workload> workloads;  //!< Rodinia, then SPEC
    std::vector<PaperCell> cells;  //!< workload-major; run.w points above
    std::vector<PaperSeries> series;
};

/** The table: 20 workloads on seven arrangements, 130 cells. */
const PaperTable &paperCells();

/** One series on one workload. */
struct SeriesPoint
{
    const PaperCell *numerator;
    const PaperCell *denominator;  //!< the fallback cell if fell_back
    bool fell_back;
    double ratio;
};

/** A figure's series measured on their suite. */
struct FigureRun
{
    std::vector<const PaperSeries *> series;
    std::vector<std::vector<SeriesPoint>> points;  //!< [series][workload]
    std::vector<double> geomeans;                  //!< per series
    std::map<std::string, EngineRun> runs;         //!< by cell name
};

/**
 * Run @p figure's series on their suite, or on the workloads @p only
 * names, each cell once through one runMatrix call on @p jobs host
 * threads.
 */
FigureRun runFigure(const std::string &figure, unsigned jobs,
                    const std::vector<std::string> &only = {});

} // namespace diag::harness

#endif // DIAG_HARNESS_RUNNER_HPP
