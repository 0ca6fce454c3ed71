/**
 * @file
 * Ablation: datapath reuse on/off. With reuse disabled every backward
 * branch pays the mispredict/refetch path, quantifying how much of
 * DiAG's performance comes from reusing already-constructed datapaths
 * (§4.3.2, Table 1's "DiAG (Reuse)" column).
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
            bench::parseJobs("bench_ablation_reuse", argc, argv, &jobs))
        return *rc;
    const std::vector<workloads::Workload> suite =
        workloads::rodiniaSuite();
    DiagConfig off = DiagConfig::f4c32();
    off.reuse_enabled = false;
    off.name = "F4C32-noreuse";
    const auto runs =
        bench::runGrid(suite, {DiagConfig::f4c32(), off}, jobs);

    Table t("Ablation: datapath reuse on vs off (F4C32, serial)");
    t.header({"benchmark", "cycles (reuse)", "cycles (no reuse)",
              "speedup from reuse", "fetches saved"});
    for (size_t i = 0; i < suite.size(); ++i) {
        const EngineRun &a = runs[i][0];
        const EngineRun &b = runs[i][1];
        t.row({suite[i].name,
               Table::num(static_cast<double>(a.stats.cycles), 0),
               Table::num(static_cast<double>(b.stats.cycles), 0),
               Table::num(static_cast<double>(b.stats.cycles) /
                              static_cast<double>(a.stats.cycles),
                          2) + "x",
               Table::num(b.stats.counters.get("iline_fetches") -
                              a.stats.counters.get("iline_fetches"),
                          0)});
    }
    t.print();
    return 0;
}
