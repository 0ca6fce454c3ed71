/**
 * @file
 * Figure 11 reproduction: DiAG energy consumption breakdown (%) by
 * hardware component across four benchmarks — compute-heavy kernels
 * spend close to half their energy in the FP units, while graph
 * traversal is dominated by memory and data movement (paper §7.3.1).
 */
#include "fig_common.hpp"

using namespace diag;
using namespace diag::harness;

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    if (const auto rc = bench::parseJobs("bench_fig11_energy_breakdown",
                                         argc, argv, &jobs))
        return *rc;
    // Two compute-heavy and two memory/control benchmarks, matching
    // the contrast the paper draws.
    const std::vector<workloads::Workload> suite =
        bench::findWorkloads({"backprop", "hotspot", "bfs", "mcf"});
    const auto runs =
        bench::runGrid(suite, {core::DiagConfig::f4c32()}, jobs);

    Table t("Fig 11: DiAG energy breakdown by component (%), F4C32");
    t.header({"benchmark", "fp_units", "lanes_alu", "memory",
              "control"});
    for (size_t i = 0; i < suite.size(); ++i) {
        const energy::EnergyReport &e = runs[i][0].energy;
        t.row({suite[i].name,
               Table::num(100.0 * e.fraction("fp_units"), 1),
               Table::num(100.0 * e.fraction("lanes_alu"), 1),
               Table::num(100.0 * e.fraction("memory"), 1),
               Table::num(100.0 * e.fraction("control"), 1)});
    }
    t.print();
    std::printf(
        "\nPaper Fig 11 shape: compute-heavy benchmarks spend ~half of "
        "energy on\nfunctional units with ~20%% on register lanes; "
        "graph traversal is dominated\nby memory and data movement.\n");
    return 0;
}
