/**
 * @file
 * The observability core's contracts (DESIGN.md §16): log2 histogram
 * bucket boundaries and merge algebra, byte-stable key-sorted registry
 * dumps, shard-merge invariance for any job count, and soak-report
 * metric determinism across --jobs.
 */
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "host/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/serve_obs.hpp"
#include "serve/soak.hpp"

using namespace diag;
using namespace diag::obs;

namespace
{

TEST(ObsHistogram, BucketBoundaries)
{
    // Bucket 0 is the value 0; bucket k >= 1 is [2^(k-1), 2^k).
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(7), 3u);
    EXPECT_EQ(Histogram::bucketOf(8), 4u);
    EXPECT_EQ(Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(Histogram::bucketOf(1024), 11u);
    EXPECT_EQ(Histogram::bucketOf(~u64{0}), 64u);

    EXPECT_EQ(Histogram::upperOf(0), 0u);
    EXPECT_EQ(Histogram::upperOf(1), 1u);
    EXPECT_EQ(Histogram::upperOf(2), 3u);
    EXPECT_EQ(Histogram::upperOf(10), 1023u);
    EXPECT_EQ(Histogram::upperOf(64), ~u64{0});

    // Every value lands in a bucket whose bounds contain it.
    for (u64 v : {u64{1},   u64{5},    u64{100},
                  u64{999}, u64{4096}, u64{1} << 40}) {
        const unsigned b = Histogram::bucketOf(v);
        EXPECT_LE(v, Histogram::upperOf(b)) << v;
        if (b > 0) {
            EXPECT_GT(v, Histogram::upperOf(b - 1)) << v;
        }
    }
}

TEST(ObsHistogram, PercentilesNeverExceedTheExactMax)
{
    Histogram h;
    for (u64 v = 0; v < 100; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.sum(), 4950u);
    EXPECT_EQ(h.max(), 99u);
    // p100-ish percentiles report a bucket upper bound capped at the
    // recorded max; lower ones report their bucket's bound.
    EXPECT_LE(h.percentile(50), h.percentile(95));
    EXPECT_LE(h.percentile(95), h.percentile(99));
    EXPECT_LE(h.percentile(99), h.max());
    // An empty histogram reports zeros.
    Histogram e;
    EXPECT_EQ(e.percentile(50), 0u);
    EXPECT_EQ(e.max(), 0u);
}

TEST(ObsHistogram, MergeIsBucketwiseSum)
{
    Histogram a, b, combined;
    for (u64 v = 0; v < 64; ++v) {
        (v % 2 ? a : b).record(v * 17 % 300);
        combined.record(v * 17 % 300);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.sum(), combined.sum());
    EXPECT_EQ(a.max(), combined.max());
    for (unsigned k = 0; k < Histogram::kBuckets; ++k)
        EXPECT_EQ(a.bucket(k), combined.bucket(k)) << k;
}

TEST(ObsRegistry, DumpIsByteStableAndKeySorted)
{
    MetricRegistry reg("t");
    reg.inc("zeta", 3);
    reg.inc("alpha");
    reg.maxGauge("depth", 7);
    reg.maxGauge("depth", 4); // high-watermark keeps 7
    reg.observe("lat", 0);
    reg.observe("lat", 9);
    const std::string a = reg.toJson();
    EXPECT_EQ(a, reg.toJson());
    // std::map keys dump sorted: alpha before zeta.
    EXPECT_LT(a.find("\"alpha\""), a.find("\"zeta\""));
    EXPECT_NE(a.find("\"depth\": 7"), std::string::npos);
    EXPECT_NE(a.find("\"p50\""), std::string::npos);
    EXPECT_EQ(a.back(), '\n');
}

TEST(ObsRegistry, ShardMergeIsJobCountInvariant)
{
    // The same 600 deterministic samples, sharded three different
    // ways and merged in task-index order, must dump byte-identically
    // — the property that makes per-worker metric shards safe under
    // any --jobs value.
    const auto sample = [](size_t i) { return (i * 2654435761u) % 5000; };
    std::string golden;
    for (unsigned nshards : {1u, 4u, 16u}) {
        const std::vector<MetricRegistry> shards =
            host::parallelMap<MetricRegistry>(
                nshards, nshards, [&](size_t shard) {
                    MetricRegistry r;
                    for (size_t i = shard; i < 600; i += nshards) {
                        r.inc("items");
                        r.inc(i % 3 ? "odd_ish" : "third");
                        r.maxGauge("peak", sample(i));
                        r.observe("value", sample(i));
                    }
                    return r;
                });
        const std::string dump =
            mergeShards("sharded", shards).toJson();
        if (golden.empty())
            golden = dump;
        EXPECT_EQ(dump, golden) << nshards << " shards";
    }
    EXPECT_NE(golden.find("\"items\": 600"), std::string::npos);
}

TEST(ObsSoak, ReportBytesAreJobCountInvariant)
{
    serve::SoakSpec sp;
    sp.requests = 80;
    sp.faults.crash_pct = 5.0;
    sp.faults.stall_pct = 2.0;
    sp.faults.corrupt_pct = 10.0;
    sp.jobs = 1;
    const serve::SoakReport one = serve::runSoak(sp);
    sp.jobs = 4;
    const serve::SoakReport four = serve::runSoak(sp);
    EXPECT_EQ(serve::renderSoakJson(sp, one),
              serve::renderSoakJson(sp, four));
    EXPECT_EQ(one.obs.reg.toJson(), four.obs.reg.toJson());
    EXPECT_EQ(one.obs.spans.size(), four.obs.spans.size());
}

TEST(ObsSoak, ReportCarriesStageHistograms)
{
    serve::SoakSpec sp;
    sp.requests = 60;
    const serve::SoakReport rep = serve::runSoak(sp);
    EXPECT_TRUE(rep.robust());
    const Histogram *total = rep.obs.reg.histogram("total_ms");
    ASSERT_NE(total, nullptr);
    // Every request resolves exactly once into total_ms.
    EXPECT_EQ(total->count(), rep.requests);
    const Histogram *qwait = rep.obs.reg.histogram("queue_wait_ms");
    ASSERT_NE(qwait, nullptr);
    EXPECT_GT(qwait->count(), 0u);
    // Registry counters mirror the report tallies.
    EXPECT_EQ(rep.obs.reg.counter("ok"), rep.ok);
    EXPECT_EQ(rep.obs.reg.counter("cache_hits"), rep.cache.hits);
    EXPECT_LE(total->percentile(50), total->percentile(99));
    EXPECT_LE(total->percentile(99), total->max());
    // Spans exist and carry the queue + worker track taxonomy.
    EXPECT_FALSE(rep.obs.spans.empty());
    bool saw_queue = false, saw_attempt = false;
    for (const trace::SpanEvent &s : rep.obs.spans) {
        saw_queue = saw_queue || s.cat == "queue";
        saw_attempt = saw_attempt || s.cat == "attempt";
    }
    EXPECT_TRUE(saw_queue);
    EXPECT_TRUE(saw_attempt);
}

} // namespace
