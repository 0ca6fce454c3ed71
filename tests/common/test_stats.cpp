/**
 * @file
 * StatGroup serialization: the byte-stable JSON dump (golden-file
 * regression), integer rendering and key escaping, and the shared
 * JSON string escaper.
 */
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "json_syntax.hpp"

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

TEST(JsonEscape, ShortEscapesAndControlBytes)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
    EXPECT_EQ(jsonEscape(std::string("\x00\x01\r\x1f", 4)),
              "\\u0000\\u0001\\u000d\\u001f");
    // Bytes from 0x20 up, UTF-8 included, pass through untouched.
    EXPECT_EQ(jsonEscape(" ~\x7f\xc3\xa9"), " ~\x7f\xc3\xa9");
    // The test JSON checker accepts JSON and rejects a raw control
    // byte and a trailing comma.
    EXPECT_TRUE(test::isValidJson(
        "{\"a\": [1, -2.5e3, true, null, \"\\u00e9\\n\"], \"b\": {}}"));
    EXPECT_FALSE(test::isValidJson("\"a\x01\""));
    EXPECT_FALSE(test::isValidJson("{\"a\": 1,}"));
    // Every single byte lands in a string literal that parses.
    for (int b = 0; b < 0x100; ++b) {
        const std::string lit =
            "\"" + jsonEscape(std::string(1, static_cast<char>(b))) + "\"";
        EXPECT_TRUE(test::isValidJson(lit)) << "byte " << b;
    }
}

} // namespace
