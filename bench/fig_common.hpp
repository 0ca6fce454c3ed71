/**
 * @file
 * Shared driver for the workload benches: the figure, ablation, stall
 * and energy-breakdown binaries. Each one runs a workload suite on the
 * OoO baseline and/or a set of DiAG configurations and prints the
 * tables the paper reports (relative series with baseline = 1.0).
 *
 * Every engine run is one harness::runMatrix cell, fanned out onto
 * host worker threads (--jobs N, default one per hardware thread);
 * results merge in cell order, so the printed tables are
 * byte-identical for any job count.
 */
#ifndef DIAG_BENCH_FIG_COMMON_HPP
#define DIAG_BENCH_FIG_COMMON_HPP

#include <cstdio>
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

/** Relative performance of single-threaded DiAG configs vs the
 *  1-core baseline (Fig. 9a / Fig. 10a shape). */
inline void
relPerfSingleThread(const std::string &title,
                    const std::vector<workloads::Workload> &suite,
                    double paper_avg_32, double paper_avg_256,
                    double paper_avg_512, unsigned jobs = 0)
{
    const auto diag_cfgs = harness::diagSingleThreadConfigs();
    // Config 0 is the baseline, then each DiAG config.
    std::vector<EngineConfig> cfgs{ooo::OooConfig::baseline8()};
    cfgs.insert(cfgs.end(), diag_cfgs.begin(), diag_cfgs.end());
    const auto runs = runGrid(suite, cfgs, jobs);

    Table t(title);
    t.header({"benchmark", "DiAG-32PE", "DiAG-256PE", "DiAG-512PE",
              "baseline IPC"});
    std::vector<std::vector<double>> rels(diag_cfgs.size());
    for (size_t i = 0; i < suite.size(); ++i) {
        const EngineRun &base = runs[i][0];
        std::vector<std::string> cells_out{suite[i].name};
        for (size_t c = 0; c < diag_cfgs.size(); ++c) {
            const EngineRun &run = runs[i][1 + c];
            const double rel = static_cast<double>(base.stats.cycles) /
                               static_cast<double>(run.stats.cycles);
            rels[c].push_back(rel);
            cells_out.push_back(Table::num(rel, 2) + "x");
        }
        cells_out.push_back(Table::num(base.stats.ipc(), 2));
        t.row(cells_out);
    }
    t.row({"geomean", Table::num(harness::geomean(rels[0]), 2) + "x",
           Table::num(harness::geomean(rels[1]), 2) + "x",
           Table::num(harness::geomean(rels[2]), 2) + "x", ""});
    t.print();
    std::printf("\nPaper-reported averages: %.2fx (32 PE), %.2fx "
                "(256 PE), %.2fx (512 PE)\n",
                paper_avg_32, paper_avg_256, paper_avg_512);
}

/** Relative multithreaded performance: 16x2 DiAG rings (and the
 *  MT+SIMT arrangement where a simt variant exists) vs the 12-core
 *  baseline (Fig. 9b / Fig. 10b shape). */
inline void
relPerfMultiThread(const std::string &title,
                   const std::vector<workloads::Workload> &suite,
                   double paper_avg_mt, double paper_avg_simt,
                   unsigned jobs = 0)
{
    // Cells per workload: baseline, DiAG MT, then (simt workloads
    // only) the MT+SIMT run.
    std::vector<MatrixCell> cells;
    std::vector<size_t> first_cell(suite.size());
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto &w = suite[i];
        first_cell[i] = cells.size();
        cells.push_back({.w = &w,
                         .spec = {harness::kOooMtThreads, false},
                         .cfg = ooo::OooConfig::multicore12()});
        cells.push_back({.w = &w,
                         .spec = {harness::kDiagMtThreads, false},
                         .cfg = harness::diagMultiThreadConfig()});
        if (!w.asm_simt.empty())
            cells.push_back({.w = &w,
                             .spec = {harness::kDiagMtSimtThreads, true},
                             .cfg = harness::diagMtSimtConfig()});
    }
    const std::vector<EngineRun> runs = harness::runMatrix(cells, jobs);

    Table t(title);
    t.header({"benchmark", "DiAG MT(16x2)", "DiAG MT+SIMT(8x4)",
              "threads"});
    std::vector<double> mt_rels;
    std::vector<double> simt_rels;
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto &w = suite[i];
        const EngineRun &base = runs[first_cell[i]];
        const EngineRun &mt = runs[first_cell[i] + 1];
        const double rel_mt = static_cast<double>(base.stats.cycles) /
                              static_cast<double>(mt.stats.cycles);
        mt_rels.push_back(rel_mt);
        std::string simt_cell = "-";
        if (!w.asm_simt.empty()) {
            const EngineRun &st = runs[first_cell[i] + 2];
            const double rel =
                static_cast<double>(base.stats.cycles) /
                static_cast<double>(st.stats.cycles);
            simt_rels.push_back(rel);
            simt_cell = Table::num(rel, 2) + "x";
        } else {
            simt_rels.push_back(rel_mt);  // paper: purple == blue bar
        }
        t.row({w.name, Table::num(rel_mt, 2) + "x", simt_cell,
               w.partitionable ? std::to_string(
                                     harness::kDiagMtThreads)
                               : "1"});
    }
    t.row({"geomean", Table::num(harness::geomean(mt_rels), 2) + "x",
           Table::num(harness::geomean(simt_rels), 2) + "x", ""});
    t.print();
    std::printf("\nPaper-reported averages: %.2fx (MT), %.2fx "
                "(MT with SIMT pipelining)\n",
                paper_avg_mt, paper_avg_simt);
}

} // namespace diag::bench

#endif // DIAG_BENCH_FIG_COMMON_HPP
