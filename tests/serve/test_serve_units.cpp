/**
 * @file
 * Unit tests for the service-layer policy pieces: the bounded
 * admission queue (watermarks, hysteresis, priority order), the
 * retry policy, the result cache's integrity degradation, the
 * restart-budget circuit breaker, the fault plan's determinism,
 * request validation, and the reply line's JSON. All pure
 * single-threaded policy — the threaded service and the soak DES
 * reuse exactly these objects.
 */
#include <gtest/gtest.h>

#include "json_syntax.hpp"
#include "serve/breaker.hpp"
#include "serve/cache.hpp"
#include "serve/fault_plan.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/retry.hpp"
#include "serve/worker.hpp"

using namespace diag;
using namespace diag::serve;

namespace
{

QueueConfig
smallQueue()
{
    QueueConfig q;
    q.capacity = 8;
    q.high_watermark = 6;
    q.low_watermark = 3;
    return q;
}

TEST(BoundedQueue, RejectsAtCapacity)
{
    BoundedQueue<int> q(smallQueue());
    for (int i = 0; i < 8; ++i) {
        int v = i;
        ASSERT_EQ(q.tryPush(v, Priority::High), Admission::Admitted);
    }
    int v = 99;
    EXPECT_EQ(q.tryPush(v, Priority::High), Admission::Rejected);
    EXPECT_EQ(v, 99) << "a rejected item must be left untouched";
    EXPECT_EQ(q.size(), 8u);
}

TEST(BoundedQueue, ShedsLowAboveHighWatermarkWithHysteresis)
{
    BoundedQueue<int> q(smallQueue());
    for (int i = 0; i < 6; ++i) {
        int v = i;
        ASSERT_EQ(q.tryPush(v, Priority::Normal),
                  Admission::Admitted);
    }
    // Depth 6 = the high watermark: shedding starts, Low is shed,
    // Normal still gets in.
    int v = 100;
    EXPECT_EQ(q.tryPush(v, Priority::Low), Admission::Shed);
    EXPECT_TRUE(q.shedding());
    EXPECT_EQ(q.tryPush(v, Priority::Normal), Admission::Admitted);

    // Drain to just above the low watermark: still shedding.
    while (q.size() > 3)
        ASSERT_TRUE(q.tryPop().has_value());
    v = 101;
    EXPECT_EQ(q.tryPush(v, Priority::Low), Admission::Shed);

    // Below the low watermark the mode clears and Low is admitted
    // again — hysteresis, no flapping around one boundary.
    ASSERT_TRUE(q.tryPop().has_value());
    ASSERT_TRUE(q.tryPop().has_value());
    EXPECT_EQ(q.tryPush(v, Priority::Low), Admission::Admitted);
    EXPECT_FALSE(q.shedding());
}

TEST(BoundedQueue, PopsPriorityOrderFifoWithinClass)
{
    BoundedQueue<int> q;
    const auto push = [&](int v, Priority p) {
        int item = v;
        ASSERT_EQ(q.tryPush(item, p), Admission::Admitted);
    };
    push(1, Priority::Low);
    push(2, Priority::Normal);
    push(3, Priority::High);
    push(4, Priority::Normal);
    push(5, Priority::High);
    const int want[] = {3, 5, 2, 4, 1};
    for (const int w : want) {
        auto got = q.tryPop();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, w);
    }
    EXPECT_FALSE(q.tryPop().has_value());
}

TEST(RetryPolicy, BackoffGrowsIsCappedAndDeterministic)
{
    RetryPolicy p;
    p.base_backoff_ms = 50;
    p.max_backoff_ms = 400;
    p.jitter = 0.5;
    const u64 b1 = p.backoffMs(7, 42, 1);
    const u64 b2 = p.backoffMs(7, 42, 2);
    EXPECT_EQ(b1, p.backoffMs(7, 42, 1)) << "pure in its inputs";
    EXPECT_GE(b1, 50u);
    EXPECT_LE(b1, 75u); // base + at most 50% jitter
    EXPECT_GE(b2, 100u);
    // Far past the cap: bounded by max * (1 + jitter).
    EXPECT_LE(p.backoffMs(7, 42, 10), 600u);
    // Different requests decorrelate (with overwhelming probability
    // for any fixed pair).
    EXPECT_NE(p.backoffMs(7, 42, 1), p.backoffMs(7, 43, 1));
}

TEST(RetryPolicy, OnlyRetryableKindsWithinBudget)
{
    RetryPolicy p;
    p.max_attempts = 3;
    EXPECT_TRUE(p.shouldRetry(FailKind::Timeout, 1));
    EXPECT_TRUE(p.shouldRetry(FailKind::WorkerCrash, 2));
    EXPECT_FALSE(p.shouldRetry(FailKind::WorkerCrash, 3));
    EXPECT_FALSE(p.shouldRetry(FailKind::Sdc, 1));
    EXPECT_FALSE(p.shouldRetry(FailKind::Trap, 1));
    EXPECT_FALSE(p.shouldRetry(FailKind::Malformed, 1));
}

TEST(ResultCache, VerifiedHitThenCorruptionDegradesToMiss)
{
    ResultCache c;
    std::string out;
    EXPECT_FALSE(c.get(1, &out));
    c.put(1, "payload-bytes");
    ASSERT_TRUE(c.get(1, &out));
    EXPECT_EQ(out, "payload-bytes");

    // Damage the entry: the next read must fail verification, drop
    // the entry, and report a miss — never return the bytes.
    c.corrupt(1);
    out.clear();
    EXPECT_FALSE(c.get(1, &out));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(c.stats().integrity_drops, 1u);
    EXPECT_EQ(c.size(), 0u);

    // Recompute-and-reinsert restores service.
    c.put(1, "payload-bytes");
    EXPECT_TRUE(c.get(1, &out));
    EXPECT_EQ(out, "payload-bytes");
}

TEST(CircuitBreaker, OpensOnBudgetCoolsAndProbes)
{
    CircuitBreaker b(2, 100);
    EXPECT_TRUE(b.allow(0));
    b.recordCrash(10);
    EXPECT_TRUE(b.allow(11)); // one unit of budget left
    b.recordCrash(20);
    EXPECT_EQ(b.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(b.trips(), 1u);
    EXPECT_FALSE(b.allow(50)) << "open: inside the cooldown";

    // Cooldown over: exactly one probe goes through.
    EXPECT_TRUE(b.allow(120));
    EXPECT_FALSE(b.allow(121)) << "half-open admits one probe";
    b.recordSuccess();
    EXPECT_EQ(b.state(), CircuitBreaker::State::Closed);

    // The refilled budget absorbs another crash without tripping.
    b.recordCrash(200);
    EXPECT_TRUE(b.allow(201));
}

TEST(CircuitBreaker, HalfOpenCrashReopens)
{
    CircuitBreaker b(1, 100);
    b.recordCrash(0);
    EXPECT_EQ(b.state(), CircuitBreaker::State::Open);
    EXPECT_TRUE(b.allow(150));
    b.recordCrash(150); // the probe itself died
    EXPECT_EQ(b.state(), CircuitBreaker::State::Open);
    EXPECT_FALSE(b.allow(200));
    EXPECT_EQ(b.trips(), 2u);
}

TEST(ServiceFaultPlan, DeterministicAndRateBounded)
{
    ServiceFaultPlan p;
    p.seed = 9;
    p.crash_pct = 10;
    p.stall_pct = 10;
    unsigned crashes = 0, stalls = 0;
    for (u64 id = 0; id < 2000; ++id) {
        EXPECT_EQ(p.crashes(id, 1), p.crashes(id, 1));
        if (p.crashes(id, 1))
            ++crashes;
        if (p.stalls(id, 1)) {
            ++stalls;
            EXPECT_FALSE(p.crashes(id, 1))
                << "one attempt has exactly one injected fate";
        }
    }
    EXPECT_GT(crashes, 100u);
    EXPECT_LT(crashes, 400u);
    EXPECT_GT(stalls, 100u);
    EXPECT_LT(stalls, 400u);

    const ServiceFaultPlan none;
    EXPECT_FALSE(none.any());
    EXPECT_FALSE(none.crashes(1, 1));
    EXPECT_FALSE(none.stalls(1, 1));
    EXPECT_FALSE(none.corrupts(1, 1));
}

TEST(ValidateRequest, ClassifiesMalformedWithoutFataling)
{
    SimRequest q;
    q.workload = "no-such-workload";
    EXPECT_FALSE(validateRequest(q).ok);

    q.workload = "nn";
    q.config = "NOPE";
    EXPECT_FALSE(validateRequest(q).ok);

    q.config = "F4C2";
    q.threads = 0;
    EXPECT_FALSE(validateRequest(q).ok);

    q.threads = 1;
    const ValidatedRequest v = validateRequest(q);
    ASSERT_TRUE(v.ok);
    EXPECT_NE(v.content_key, 0u);
    EXPECT_EQ(v.content_key, validateRequest(q).content_key)
        << "the content key is pure in the request";

    SimRequest other = q;
    other.config = "F4C16";
    EXPECT_NE(validateRequest(other).content_key, v.content_key);
    other = q;
    other.threads = 2;
    EXPECT_NE(validateRequest(other).content_key, v.content_key);
}

TEST(RenderResponseJson, ControlBytesInReasonStayValidJson)
{
    // An unknown workload name is echoed into the reason, so any byte
    // a client sends can reach the reply line.
    SimResponse r;
    r.id = 1;
    r.fail = FailKind::Malformed;
    r.reason = "unknown workload 'nn\x01x'\t\"quoted\"\n";
    const std::string json = renderResponseJson(r);
    EXPECT_TRUE(test::isValidJson(json)) << json;
    EXPECT_NE(json.find("nn\\u0001x"), std::string::npos) << json;
}

} // namespace
