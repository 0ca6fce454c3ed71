/**
 * @file
 * StatGroup serialization: the byte-stable JSON dump (golden-file
 * regression), integer rendering and key escaping.
 */
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/stats.hpp"

using namespace diag;

namespace
{

StatGroup
sampleGroup()
{
    StatGroup g("diag");
    g.set("activations", 2307);
    g.set("ipc", 1.5);
    g.set("neg_count", -42);
    g.set("pi", 3.14159265358979);
    g.set("zero", 0);
    return g;
}

std::string
dumpJsonOf(const StatGroup &g)
{
    std::ostringstream os;
    g.dumpJson(os);
    return os.str();
}

TEST(StatsJson, MatchesGoldenFileByteForByte)
{
    std::ifstream in(std::string(DIAG_GOLDEN_DIR) + "/stats_dump.json",
                     std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing tests/golden/stats_dump.json";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(dumpJsonOf(sampleGroup()), want.str());
}

TEST(StatsJson, ByteStableAcrossDumpsAndInsertionOrder)
{
    const std::string a = dumpJsonOf(sampleGroup());
    // Same counters written in a different order: identical bytes.
    StatGroup g("diag");
    g.set("zero", 0);
    g.set("pi", 3.14159265358979);
    g.set("ipc", 1.5);
    g.set("neg_count", -42);
    g.set("activations", 2307);
    EXPECT_EQ(a, dumpJsonOf(g));
    EXPECT_EQ(a, dumpJsonOf(sampleGroup()));
}

TEST(StatsJson, IntegersRenderWithoutFraction)
{
    StatGroup g("g");
    g.set("count", 123456789.0);
    EXPECT_NE(dumpJsonOf(g).find("\"count\": 123456789}"),
              std::string::npos);
}

TEST(StatsJson, EscapesHostileKeys)
{
    StatGroup g("g");
    g.set("quote\"back\\slash", 1);
    const std::string out = dumpJsonOf(g);
    EXPECT_NE(out.find("quote\\\"back\\\\slash"), std::string::npos);
}

} // namespace
