/**
 * @file
 * Shared driver for the figure benches: runs a workload suite on the
 * baseline and a set of DiAG configurations and prints relative
 * performance / energy-efficiency series the way the paper's figures
 * report them (baseline = 1.0).
 *
 * All engine runs fan out through harness::runMatrix /
 * harness::validateBoundMany onto host worker threads (--jobs N,
 * default one per hardware thread); results merge in cell order, so
 * the printed tables are byte-identical for any job count.
 */
#ifndef DIAG_BENCH_FIG_COMMON_HPP
#define DIAG_BENCH_FIG_COMMON_HPP

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "harness/validate.hpp"

namespace diag::bench
{

using harness::BoundCell;
using harness::EngineRun;
using harness::MatrixCell;
using harness::RunSpec;
using harness::Table;

/**
 * Parse the shared bench command line: `[--jobs N]`. Returns the host
 * job count (0 = one per hardware thread, the default).
 */
inline unsigned
parseJobs(int argc, char **argv)
{
    unsigned jobs = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs") {
            fatal_if(i + 1 >= argc, "missing value for --jobs");
            jobs = static_cast<unsigned>(std::stoul(argv[++i]));
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [--jobs N]\n  --jobs N   host "
                        "threads (default: hardware concurrency)\n",
                        argv[0]);
            std::exit(0);
        } else {
            fatal("unknown option '%s' (benches take only --jobs N)",
                  arg.c_str());
        }
    }
    return jobs;
}

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
    // config. Bound validation runs per workload on the largest config.
    const size_t stride = 1 + cfgs.size();
    std::vector<MatrixCell> cells;
    std::vector<BoundCell> bounds;
    for (const auto &w : suite) {
        cells.push_back({.w = &w,
                         .spec = {1, false},
                         .cfg = ooo::OooConfig::baseline8()});
        for (const auto &cfg : cfgs)
            cells.push_back({.w = &w,
                             .spec = {1, false},
                             .cfg = cfg});
        bounds.push_back({.cfg = cfgs.back(), .w = &w,
                          .use_simt = false});
    }
    const std::vector<EngineRun> runs = harness::runMatrix(cells, jobs);
    const std::vector<harness::ValidationReport> reps =
        harness::validateBoundMany(bounds, jobs);

    Table t(title);
    t.header({"benchmark", "DiAG-32PE", "DiAG-256PE", "DiAG-512PE",
              "meas/bound", "baseline IPC"});
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
        // Measured cycles over the analyzer's provable lower bound on
        // the largest config: >= 1.0 by construction, and how close to
        // 1.0 says how much of the runtime the static model explains.
        cells_out.push_back(Table::num(
            reps[i].measured_cycles / reps[i].program_lower_bound, 2));
        cells_out.push_back(Table::num(base.stats.ipc(), 2));
        t.row(cells_out);
    }
    t.row({"geomean", Table::num(harness::geomean(rels[0]), 2) + "x",
           Table::num(harness::geomean(rels[1]), 2) + "x",
           Table::num(harness::geomean(rels[2]), 2) + "x", "", ""});
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
    // only) the MT+SIMT run; bound validation only for simt variants.
    std::vector<MatrixCell> cells;
    std::vector<BoundCell> bounds;
    std::vector<size_t> first_cell(suite.size());
    std::vector<int> bound_of(suite.size(), -1);
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto &w = suite[i];
        first_cell[i] = cells.size();
        cells.push_back({.w = &w,
                         .spec = {harness::kOooMtThreads, false},
                         .cfg = ooo::OooConfig::multicore12()});
        cells.push_back({.w = &w,
                         .spec = {harness::kDiagMtThreads, false},
                         .cfg = harness::diagMultiThreadConfig()});
        if (!w.asm_simt.empty()) {
            cells.push_back({.w = &w,
                             .spec = {harness::kDiagMtSimtThreads, true},
                             .cfg = harness::diagMtSimtConfig()});
            bound_of[i] = static_cast<int>(bounds.size());
            bounds.push_back({.cfg = harness::diagMtSimtConfig(),
                              .w = &w,
                              .use_simt = true});
        }
    }
    const std::vector<EngineRun> runs = harness::runMatrix(cells, jobs);
    const std::vector<harness::ValidationReport> reps =
        harness::validateBoundMany(bounds, jobs);

    Table t(title);
    t.header({"benchmark", "DiAG MT(16x2)", "DiAG MT+SIMT(8x4)",
              "meas/bound", "threads"});
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
        std::string bound_cell = "-";
        if (!w.asm_simt.empty()) {
            const EngineRun &st = runs[first_cell[i] + 2];
            const double rel =
                static_cast<double>(base.stats.cycles) /
                static_cast<double>(st.stats.cycles);
            simt_rels.push_back(rel);
            simt_cell = Table::num(rel, 2) + "x";
            // Single-thread simt run vs the analyzer's provable lower
            // bound (>= 1.0 by construction; near 1.0 means the
            // static model explains most of the runtime).
            const harness::ValidationReport &rep =
                reps[static_cast<size_t>(bound_of[i])];
            bound_cell = Table::num(
                rep.measured_cycles / rep.program_lower_bound, 2);
        } else {
            simt_rels.push_back(rel_mt);  // paper: purple == blue bar
        }
        t.row({w.name, Table::num(rel_mt, 2) + "x", simt_cell,
               bound_cell,
               w.partitionable ? std::to_string(
                                     harness::kDiagMtThreads)
                               : "1"});
    }
    t.row({"geomean", Table::num(harness::geomean(mt_rels), 2) + "x",
           Table::num(harness::geomean(simt_rels), 2) + "x", "", ""});
    t.print();
    std::printf("\nPaper-reported averages: %.2fx (MT), %.2fx "
                "(MT with SIMT pipelining)\n",
                paper_avg_mt, paper_avg_simt);
}

} // namespace diag::bench

#endif // DIAG_BENCH_FIG_COMMON_HPP
