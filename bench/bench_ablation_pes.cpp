/**
 * @file
 * Ablation: PE-count sweep on serial code. Reproduces the paper's
 * observation that, "much like large ROB sizes, no noticeable
 * improvement can be gained with more than 256 PEs for serial
 * programs" (§7.2.1).
 */
#include "fig_common.hpp"

using namespace diag;
using namespace diag::core;
using namespace diag::harness;

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    if (const auto rc =
            bench::parseJobs("bench_ablation_pes", argc, argv, &jobs))
        return *rc;
    const unsigned cluster_counts[] = {2, 4, 8, 16, 32};
    const std::vector<workloads::Workload> suite =
        bench::findWorkloads({"backprop", "hotspot", "kmeans", "srad"});
    std::vector<bench::EngineConfig> cfgs;
    for (unsigned clusters : cluster_counts) {
        DiagConfig cfg = DiagConfig::f4c32();
        cfg.total_clusters = clusters;
        cfg.name = "F4C" + std::to_string(clusters);
        cfgs.push_back(cfg);
    }
    const auto runs = bench::runGrid(suite, cfgs, jobs);

    Table t("Ablation: cycles vs total PEs (serial execution)");
    std::vector<std::string> head{"benchmark"};
    for (unsigned c : cluster_counts)
        head.push_back(std::to_string(16 * c) + " PEs");
    t.header(head);
    for (size_t i = 0; i < suite.size(); ++i) {
        std::vector<std::string> cells{suite[i].name};
        const double first = static_cast<double>(runs[i][0].stats.cycles);
        for (const EngineRun &run : runs[i]) {
            const double cycles = static_cast<double>(run.stats.cycles);
            cells.push_back(Table::num(cycles, 0) + " (" +
                            Table::num(first / cycles, 2) + "x)");
        }
        t.row(cells);
    }
    t.print();
    std::printf("\nExpected shape: gains flatten beyond 256 PEs — "
                "serial ILP saturates\njust like a larger ROB stops "
                "helping an OoO core (§7.2.1).\n");
    return 0;
}
