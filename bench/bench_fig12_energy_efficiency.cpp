/**
 * @file
 * Figure 12 reproduction: Rodinia energy-efficiency improvement
 * (inverse total energy, baseline = 1.0) for DiAG single-thread,
 * multithread, and multithread with SIMT pipelining.
 *
 * Every engine run is one harness::runMatrix cell (--jobs N, default
 * one host thread per hardware thread); the table is byte-identical
 * for any job count.
 */
#include "fig_common.hpp"

using namespace diag;
using namespace diag::harness;

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    if (const auto rc = bench::parseJobs("bench_fig12_energy_efficiency",
                                         argc, argv, &jobs))
        return *rc;
    const std::vector<workloads::Workload> suite =
        workloads::rodiniaSuite();
    // Cells per workload: single thread (F4C32 vs one baseline core),
    // multithread (16x2 rings vs 12 cores), then (simt workloads only)
    // the MT+SIMT run.
    std::vector<MatrixCell> cells;
    std::vector<size_t> first_cell(suite.size());
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto &w = suite[i];
        first_cell[i] = cells.size();
        cells.push_back({.w = &w,
                         .spec = {1, false},
                         .cfg = ooo::OooConfig::baseline8()});
        cells.push_back({.w = &w,
                         .spec = {1, false},
                         .cfg = core::DiagConfig::f4c32()});
        cells.push_back({.w = &w,
                         .spec = {kOooMtThreads, false},
                         .cfg = ooo::OooConfig::multicore12()});
        cells.push_back({.w = &w,
                         .spec = {kDiagMtThreads, false},
                         .cfg = diagMultiThreadConfig()});
        if (!w.asm_simt.empty())
            cells.push_back({.w = &w,
                             .spec = {kDiagMtSimtThreads, true},
                             .cfg = diagMtSimtConfig()});
    }
    const std::vector<EngineRun> runs = runMatrix(cells, jobs);

    Table t("Fig 12: Rodinia energy efficiency vs baseline (x better)");
    t.header({"benchmark", "single-thread", "multi-thread",
              "MT + SIMT"});
    std::vector<double> st_rels;
    std::vector<double> mt_rels;
    std::vector<double> simt_rels;
    for (size_t i = 0; i < suite.size(); ++i) {
        const EngineRun *run = &runs[first_cell[i]];
        const double st = run[0].energy.totalPj() / run[1].energy.totalPj();
        st_rels.push_back(st);
        const double mt = run[2].energy.totalPj() / run[3].energy.totalPj();
        mt_rels.push_back(mt);

        std::string simt_cell = "-";
        double simt = mt;
        if (!suite[i].asm_simt.empty()) {
            simt = run[2].energy.totalPj() / run[4].energy.totalPj();
            simt_cell = Table::num(simt, 2) + "x";
        }
        simt_rels.push_back(simt);
        t.row({suite[i].name, Table::num(st, 2) + "x",
               Table::num(mt, 2) + "x", simt_cell});
    }
    t.row({"geomean", Table::num(geomean(st_rels), 2) + "x",
           Table::num(geomean(mt_rels), 2) + "x",
           Table::num(geomean(simt_rels), 2) + "x"});
    t.print();
    std::printf("\nPaper-reported averages: 1.51x single-thread, 1.35x "
                "multithreaded,\n1.63x with SIMT pipelining "
                "enabled.\n");
    return 0;
}
