/**
 * @file
 * Shared driver for the workload benches: the figure, ablation, stall
 * and energy-breakdown binaries. Each one runs a workload suite on the
 * OoO baseline and/or a set of DiAG configurations and prints the
 * tables the paper reports (relative series with baseline = 1.0).
 * The Fig 9a/9b/10a/10b/12 benches take their cells and series from
 * the paper table, harness::paperCells(), and print its values.
 *
 * Every engine run is one harness::runMatrix cell, fanned out onto
 * host worker threads (--jobs N, default one per hardware thread);
 * results merge in cell order, so the printed tables are
 * byte-identical for any job count.
 */
#ifndef DIAG_BENCH_FIG_COMMON_HPP
#define DIAG_BENCH_FIG_COMMON_HPP

#include <cstdio>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"

namespace diag::bench
{

using harness::EngineRun;
using harness::MatrixCell;
using harness::RunSpec;
using harness::Table;

/** The engine a grid column runs on: DiAG or the OoO baseline. */
using EngineConfig = decltype(MatrixCell::cfg);

/**
 * Parse the workload benches' one flag, --jobs N, into @p jobs.
 * Returns the status main() exits with now (0 after --help, 1 after a
 * usage error), or nothing when the bench should run.
 */
inline std::optional<int>
parseJobs(const char *tool, int argc, char **argv, unsigned *jobs)
{
    harness::ArgParser ap(tool);
    switch (ap.jobsFlag(jobs).parse(argc, argv)) {
    case harness::ArgParser::Status::Help:
        return 0;
    case harness::ArgParser::Status::Usage:
        return 1;
    case harness::ArgParser::Status::Run:
        break;
    }
    return std::nullopt;
}

/** The named workloads, in order. */
inline std::vector<workloads::Workload>
findWorkloads(std::initializer_list<const char *> names)
{
    std::vector<workloads::Workload> suite;
    for (const char *name : names)
        suite.push_back(workloads::findWorkload(name));
    return suite;
}

/**
 * Run every workload of @p suite single-threaded on every config of
 * @p cfgs through one harness::runMatrix call on @p jobs host threads.
 * Returns runs[i][c], workload i on config c.
 */
inline std::vector<std::vector<EngineRun>>
runGrid(const std::vector<workloads::Workload> &suite,
        const std::vector<EngineConfig> &cfgs, unsigned jobs)
{
    std::vector<MatrixCell> cells;
    for (const auto &w : suite)
        for (const auto &cfg : cfgs)
            cells.push_back({.w = &w, .spec = {1, false}, .cfg = cfg});
    std::vector<EngineRun> flat = harness::runMatrix(cells, jobs);

    std::vector<std::vector<EngineRun>> runs(suite.size());
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto row =
            std::make_move_iterator(flat.begin() + i * cfgs.size());
        runs[i].assign(row, row + cfgs.size());
    }
    return runs;
}

/**
 * Run @p figure's series from the paper table, each cell once through
 * one harness::runMatrix call on @p jobs host threads, and print a row
 * per workload: each series' ratio ("-" where the series has no cell
 * of its own and its fallback stood in), then @p extra's column when
 * given; then the geomean row. Returns the run for the footer.
 */
inline harness::FigureRun
printFigure(const std::string &title, const std::string &figure,
            std::vector<std::string> header, unsigned jobs,
            const std::function<std::string(const harness::FigureRun &,
                                            size_t)> &extra = {})
{
    harness::FigureRun f = harness::runFigure(figure, jobs);
    Table t(title);
    t.header(std::move(header));
    for (size_t i = 0; i < f.points[0].size(); ++i) {
        std::vector<std::string> row{f.points[0][i].numerator->run.w->name};
        for (const std::vector<harness::SeriesPoint> &points : f.points)
            row.push_back(points[i].fell_back
                              ? "-"
                              : Table::num(points[i].ratio, 2) + "x");
        if (extra)
            row.push_back(extra(f, i));
        t.row(row);
    }
    std::vector<std::string> mean{"geomean"};
    for (double g : f.geomeans)
        mean.push_back(Table::num(g, 2) + "x");
    if (extra)
        mean.push_back("");
    t.row(mean);
    t.print();
    return f;
}

/** Relative performance of single-threaded DiAG configs vs the
 *  1-core baseline (Fig. 9a / Fig. 10a shape). */
inline void
relPerfSingleThread(const std::string &title, const std::string &figure,
                    unsigned jobs)
{
    const harness::FigureRun f = printFigure(
        title, figure,
        {"benchmark", "DiAG-32PE", "DiAG-256PE", "DiAG-512PE",
         "baseline IPC"},
        jobs, [](const harness::FigureRun &run, size_t i) {
            const std::string &base = run.points[0][i].numerator->name;
            return Table::num(run.runs.at(base).stats.ipc(), 2);
        });
    std::printf("\nPaper-reported averages: %.2fx (32 PE), %.2fx "
                "(256 PE), %.2fx (512 PE)\n",
                f.series[0]->paper, f.series[1]->paper, f.series[2]->paper);
}

/** Relative multithreaded performance: 16x2 DiAG rings (and the
 *  MT+SIMT arrangement where a simt variant exists) vs the 12-core
 *  baseline (Fig. 9b / Fig. 10b shape). */
inline void
relPerfMultiThread(const std::string &title, const std::string &figure,
                   unsigned jobs)
{
    const harness::FigureRun f = printFigure(
        title, figure,
        {"benchmark", "DiAG MT(16x2)", "DiAG MT+SIMT(8x4)", "threads"},
        jobs, [](const harness::FigureRun &run, size_t i) {
            const MatrixCell &mt = run.points[0][i].denominator->run;
            return mt.w->partitionable ? std::to_string(mt.spec.threads)
                                       : "1";
        });
    std::printf("\nPaper-reported averages: %.2fx (MT), %.2fx "
                "(MT with SIMT pipelining)\n",
                f.series[0]->paper, f.series[1]->paper);
}

} // namespace diag::bench

#endif // DIAG_BENCH_FIG_COMMON_HPP
