/**
 * @file
 * Ablation for §6.1.2 (circuit timing): register-lane buffer spacing.
 * The paper buffers lanes every 8 PEs to meet timing; sparser buffers
 * would lower the achievable clock but reduce lane-crossing latency,
 * denser buffers the opposite. This sweep quantifies the cycle-count
 * side of that trade-off (clock period effects are annotated).
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
            bench::parseJobs("bench_lane_timing", argc, argv, &jobs))
        return *rc;
    const std::vector<workloads::Workload> suite =
        bench::findWorkloads({"backprop", "hotspot", "deepsjeng", "lbm"});
    std::vector<bench::EngineConfig> cfgs;
    for (const unsigned seg : {4u, 8u, 16u}) {
        DiagConfig cfg = DiagConfig::f4c32();
        cfg.segment_size = seg;
        cfg.name = "F4C32-seg" + std::to_string(seg);
        cfgs.push_back(cfg);
    }
    const auto runs = bench::runGrid(suite, cfgs, jobs);

    Table t("Ablation: lane buffer spacing (segment size), F4C32");
    t.header({"benchmark", "every 4 PEs", "every 8 PEs (paper)",
              "every 16 PEs"});
    for (size_t i = 0; i < suite.size(); ++i) {
        std::vector<std::string> cells{suite[i].name};
        for (const EngineRun &run : runs[i])
            cells.push_back(
                Table::num(static_cast<double>(run.stats.cycles), 0));
        t.row(cells);
    }
    t.print();
    std::printf(
        "\nDenser buffering (every 4) adds lane-crossing cycles but "
        "would allow a\nfaster clock; sparser buffering (every 16) "
        "saves crossings but fails 2GHz\ntiming in the paper's 45nm "
        "synthesis (§6.1.2: buffered every 8 at 2GHz).\n");
    return 0;
}
