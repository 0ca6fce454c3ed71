/**
 * @file
 * §7.3.2 reproduction: breakdown of DiAG stall sources averaged over
 * the Rodinia suite — memory stalls, control-flow changes, and other
 * (structural) stalls. Paper: 73.6% / 21.1% / 5.3%.
 */
#include "fig_common.hpp"

using namespace diag;
using namespace diag::harness;

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    if (const auto rc =
            bench::parseJobs("bench_stall_breakdown", argc, argv, &jobs))
        return *rc;
    const std::vector<workloads::Workload> suite =
        workloads::rodiniaSuite();
    const auto runs =
        bench::runGrid(suite, {core::DiagConfig::f4c32()}, jobs);

    double mem = 0.0;
    double ctrl = 0.0;
    double other = 0.0;
    Table t("Stall breakdown per benchmark (F4C32, % of stall cycles)");
    t.header({"benchmark", "memory", "control", "other"});
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto &c = runs[i][0].stats.counters;
        const double m = c.get("mem_stall_cycles") +
                         c.get("mem_queue_stall_cycles");
        const double k = c.get("ctrl_stall_cycles");
        const double o = c.get("other_stall_cycles") +
                         c.get("fetch_wait_cycles") +
                         c.get("bus_wait_cycles");
        const double total = m + k + o;
        if (total > 0.0)
            t.row({suite[i].name, Table::num(100.0 * m / total, 1),
                   Table::num(100.0 * k / total, 1),
                   Table::num(100.0 * o / total, 1)});
        mem += m;
        ctrl += k;
        other += o;
    }
    t.print();

    const double total = mem + ctrl + other;
    Table s("§7.3.2: aggregate stall sources across Rodinia");
    s.header({"source", "measured %", "paper %"});
    s.row({"Memory stalls", Table::num(100.0 * mem / total, 1),
           "73.6"});
    s.row({"Control flow changes", Table::num(100.0 * ctrl / total, 1),
           "21.1"});
    s.row({"Other (structural)", Table::num(100.0 * other / total, 1),
           "5.3"});
    s.print();
    return 0;
}
