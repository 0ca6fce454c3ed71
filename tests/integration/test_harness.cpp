/** Harness utility tests: table rendering, geomean, config presets,
 *  the paper table and host cancellation on both engines. */
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "diag/processor.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "host/cancel.hpp"

using namespace diag;
using namespace diag::harness;

TEST(Harness, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({1.0, 4.0}), 2.0);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({0.5, 2.0}), 1.0, 1e-12);
}

TEST(Harness, TableNumFormatting)
{
    EXPECT_EQ(Table::num(1.234, 2), "1.23");
    EXPECT_EQ(Table::num(1.0, 0), "1");
    EXPECT_EQ(Table::num(-0.5, 1), "-0.5");
}

TEST(Harness, SingleThreadConfigsMatchTable2)
{
    const auto cfgs = diagSingleThreadConfigs();
    ASSERT_EQ(cfgs.size(), 3u);
    EXPECT_EQ(cfgs[0].totalPes(), 32u);
    EXPECT_EQ(cfgs[1].totalPes(), 256u);
    EXPECT_EQ(cfgs[2].totalPes(), 512u);
    for (const auto &cfg : cfgs) {
        EXPECT_EQ(cfg.pes_per_cluster, 16u);
        EXPECT_TRUE(cfg.fp_supported);
        EXPECT_DOUBLE_EQ(cfg.freq_ghz, 2.0);
    }
}

TEST(Harness, MtConfigsShapeThePaper)
{
    const core::DiagConfig mt = diagMultiThreadConfig();
    EXPECT_EQ(mt.num_rings, 16u);          // 16x2 (paper §7.2.1)
    EXPECT_EQ(mt.clustersPerRing(), 2u);
    const core::DiagConfig simt = diagMtSimtConfig();
    EXPECT_EQ(simt.num_rings, 8u);         // 8x4 chained rings
    EXPECT_EQ(simt.clustersPerRing(), 4u);
    EXPECT_TRUE(simt.simt_enabled);
}

TEST(Harness, ConfigNamesIdentifyConfigs)
{
    // Records keyed on a config or cell name must never merge two
    // different machines: equal names mean equal configs.
    std::vector<std::variant<core::DiagConfig, ooo::OooConfig>> cfgs = {
        core::DiagConfig::i4c2(),    core::DiagConfig::f4c2(),
        core::DiagConfig::f4c16(),   core::DiagConfig::f4c32(),
        diagMultiThreadConfig(),     diagMtSimtConfig(),
        ooo::OooConfig::baseline8(), ooo::OooConfig::multicore12()};
    std::set<std::string> cells;
    for (const PaperCell &c : paperCells().cells) {
        cfgs.push_back(c.run.cfg);
        EXPECT_TRUE(cells.insert(c.name).second) << c.name;
    }
    EXPECT_EQ(cells.size(), 130u);
    std::map<std::string, size_t> first;
    for (size_t i = 0; i < cfgs.size(); ++i) {
        const std::string name =
            std::visit([](const auto &c) { return c.name; }, cfgs[i]);
        const size_t same = first.emplace(name, i).first->second;
        EXPECT_TRUE(cfgs[same] == cfgs[i]) << name;
    }
}

TEST(Harness, NonPartitionableWorkloadRunsOneThread)
{
    const workloads::Workload lud = workloads::findWorkload("lud");
    ASSERT_FALSE(lud.partitionable);
    // Requesting 16 threads silently runs 1 (disjointness guarantee).
    const EngineRun run =
        runOnDiag(diagMultiThreadConfig(), lud, {16, false});
    EXPECT_TRUE(run.checked);
    EXPECT_EQ(run.stats.counters.get("threads"), 1.0);
}

TEST(Harness, ExpiredTokenStopsBothEngines)
{
    // A token whose deadline has passed stops either engine before its
    // first instruction; with failures tolerated the stop comes back
    // as a structured timeout instead of a fatal().
    const workloads::Workload nn = workloads::findWorkload("nn");
    const host::CancelToken expired = host::CancelToken::expiredToken();
    RunSpec spec;
    spec.tolerate_failures = true;
    spec.cancel = &expired;
    for (const EngineRun &run :
         {runOnDiag(core::DiagConfig::f4c16(), nn, spec),
          runOnOoo(ooo::OooConfig::baseline8(), nn, spec)}) {
        EXPECT_TRUE(run.stats.timed_out);
        EXPECT_TRUE(run.stats.hostStopped());
        EXPECT_FALSE(run.stats.halted);
        EXPECT_EQ(run.stats.instructions, 0u);
        EXPECT_FALSE(run.checked);
        EXPECT_EQ(run.stats.stop_reason,
                  "thread 0: host watchdog: host deadline exceeded");
    }
}
