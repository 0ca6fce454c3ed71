/** Cross-engine comparisons: relationships between configurations
 *  that the figure benches depend on. Each figure cell's output check
 *  and timing digest live in the EngineWorkload checks
 *  (tests/diag/test_timing_digests.cpp). */
#include <gtest/gtest.h>

#include "harness/runner.hpp"

using namespace diag;
using namespace diag::harness;

TEST(EngineComparison, MultiThreadingSpeedsUpPartitionableWork)
{
    // Spatial TLP must help both architectures on partitionable
    // kernels (paper §4.4: spatial parallelism).
    const workloads::Workload w = workloads::findWorkload("kmeans");
    const EngineRun d1 =
        runOnDiag(diagMultiThreadConfig(), w, {1, false});
    const EngineRun d16 =
        runOnDiag(diagMultiThreadConfig(), w, {16, false});
    EXPECT_LT(d16.stats.cycles, d1.stats.cycles);

    const EngineRun o1 =
        runOnOoo(ooo::OooConfig::multicore12(), w, {1, false});
    const EngineRun o12 =
        runOnOoo(ooo::OooConfig::multicore12(), w, {12, false});
    EXPECT_LT(o12.stats.cycles, o1.stats.cycles);
}

TEST(EngineComparison, MorePesNeverHurtMuch)
{
    // F4C32 should never be dramatically slower than F4C2 (it strictly
    // adds resources); allow small noise from allocation differences.
    for (const char *name : {"backprop", "srad", "deepsjeng"}) {
        const workloads::Workload w = workloads::findWorkload(name);
        const EngineRun small =
            runOnDiag(core::DiagConfig::f4c2(), w, {1, false});
        const EngineRun large =
            runOnDiag(core::DiagConfig::f4c32(), w, {1, false});
        EXPECT_LT(large.stats.cycles,
                  static_cast<Cycle>(1.10 *
                                     static_cast<double>(
                                         small.stats.cycles)))
            << name;
    }
}

TEST(EngineComparison, ReuseConfigBeatsNoReuse)
{
    const workloads::Workload w = workloads::findWorkload("hotspot");
    core::DiagConfig off = core::DiagConfig::f4c32();
    off.reuse_enabled = false;
    const EngineRun with_reuse =
        runOnDiag(core::DiagConfig::f4c32(), w, {1, false});
    const EngineRun without = runOnDiag(off, w, {1, false});
    EXPECT_LT(with_reuse.stats.cycles, without.stats.cycles);
}
