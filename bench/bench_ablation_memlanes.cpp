/**
 * @file
 * Ablation: memory lanes (store-to-load forwarding, §5.2) on/off.
 */
#include "fig_common.hpp"

using namespace diag;
using namespace diag::core;
using namespace diag::harness;

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    if (const auto rc = bench::parseJobs("bench_ablation_memlanes", argc,
                                         argv, &jobs))
        return *rc;
    const std::vector<workloads::Workload> suite = bench::findWorkloads(
        {"nw", "pathfinder", "lud", "xz", "bfs", "hotspot"});
    DiagConfig off = DiagConfig::f4c32();
    off.mem_lanes_enabled = false;
    off.name = "F4C32-nomemlanes";
    const auto runs =
        bench::runGrid(suite, {DiagConfig::f4c32(), off}, jobs);

    Table t("Ablation: memory lanes on vs off (F4C32, serial)");
    t.header({"benchmark", "cycles (lanes)", "cycles (no lanes)",
              "speedup", "forwards"});
    for (size_t i = 0; i < suite.size(); ++i) {
        const EngineRun &a = runs[i][0];
        const EngineRun &b = runs[i][1];
        t.row({suite[i].name,
               Table::num(static_cast<double>(a.stats.cycles), 0),
               Table::num(static_cast<double>(b.stats.cycles), 0),
               Table::num(static_cast<double>(b.stats.cycles) /
                              static_cast<double>(a.stats.cycles),
                          2) + "x",
               Table::num(a.stats.counters.get("memlane_fwd"), 0)});
    }
    t.print();
    return 0;
}
