/**
 * @file
 * Shared driver for the figure benches: runs a workload suite on the
 * baseline and a set of DiAG configurations and prints relative
 * performance / energy-efficiency series the way the paper's figures
 * report them (baseline = 1.0).
 *
 * All engine runs fan out through harness::runMatrix onto host worker
 * threads (--jobs N, default one per hardware thread); results merge
 * in cell order, so the printed tables are byte-identical for any job
 * count.
 */
#ifndef DIAG_BENCH_FIG_COMMON_HPP
#define DIAG_BENCH_FIG_COMMON_HPP

#include <cstdio>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/table.hpp"

namespace diag::bench
{

using harness::EngineRun;
using harness::MatrixCell;
using harness::RunSpec;
using harness::Table;

/** Relative performance of single-threaded DiAG configs vs the
 *  1-core baseline (Fig. 9a / Fig. 10a shape). */
inline void
relPerfSingleThread(const std::string &title,
                    const std::vector<workloads::Workload> &suite,
                    double paper_avg_32, double paper_avg_256,
                    double paper_avg_512, unsigned jobs = 0)
{
    const auto cfgs = harness::diagSingleThreadConfigs();
    // One matrix cell per (workload, engine config), stride
    // 1 + cfgs.size() per workload: baseline first, then each DiAG
    // config.
    const size_t stride = 1 + cfgs.size();
    std::vector<MatrixCell> cells;
    for (const auto &w : suite) {
        cells.push_back({.w = &w,
                         .spec = {1, false},
                         .cfg = ooo::OooConfig::baseline8()});
        for (const auto &cfg : cfgs)
            cells.push_back({.w = &w,
                             .spec = {1, false},
                             .cfg = cfg});
    }
    const std::vector<EngineRun> runs = harness::runMatrix(cells, jobs);

    Table t(title);
    t.header({"benchmark", "DiAG-32PE", "DiAG-256PE", "DiAG-512PE",
              "baseline IPC"});
    std::vector<std::vector<double>> rels(cfgs.size());
    for (size_t i = 0; i < suite.size(); ++i) {
        const EngineRun &base = runs[i * stride];
        std::vector<std::string> cells_out{suite[i].name};
        for (size_t c = 0; c < cfgs.size(); ++c) {
            const EngineRun &run = runs[i * stride + 1 + c];
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
