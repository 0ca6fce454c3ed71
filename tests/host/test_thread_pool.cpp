/** Host execution layer tests: FIFO pool ordering and lifetime,
 *  exception propagation, and the parallelMap determinism/merge
 *  contract (DESIGN.md §10). */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "host/parallel.hpp"
#include "host/thread_pool.hpp"

using namespace diag;
using namespace diag::host;

TEST(ThreadPool, HardwareJobsAndResolve)
{
    EXPECT_GE(ThreadPool::hardwareJobs(), 1u);
    EXPECT_EQ(resolveJobs(0), ThreadPool::hardwareJobs());
    EXPECT_EQ(resolveJobs(1), 1u);
    EXPECT_EQ(resolveJobs(7), 7u);
}

TEST(ThreadPool, SingleWorkerRunsExternalTasksInSubmissionOrder)
{
    // One worker draining the FIFO queue: submissions must execute
    // in submission order.
    ThreadPool pool(1);
    std::mutex m;
    std::vector<int> order;
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 64; ++i)
        futs.push_back(pool.submit([&m, &order, i]() {
            std::lock_guard<std::mutex> lk(m);
            order.push_back(i);
        }));
    for (auto &f : futs)
        f.get();
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(ThreadPool, EveryTaskRunsExactlyOnce)
{
    std::atomic<unsigned> ran{0};
    std::vector<std::future<void>> futs;
    {
        ThreadPool pool(4);
        for (unsigned i = 0; i < 1000; ++i)
            futs.push_back(pool.submit([&ran]() { ++ran; }));
        for (auto &f : futs)
            f.get();
    }
    EXPECT_EQ(ran.load(), 1000u);
}

TEST(ThreadPool, DestructorDrainsUnwaitedTasks)
{
    // Dropping the pool without waiting any future still runs every
    // submitted task before ~ThreadPool returns.
    std::atomic<unsigned> ran{0};
    {
        ThreadPool pool(2);
        for (unsigned i = 0; i < 200; ++i)
            pool.submit([&ran]() { ++ran; });
    }
    EXPECT_EQ(ran.load(), 200u);
}

TEST(ThreadPool, ExceptionReachesTheWaiter)
{
    ThreadPool pool(2);
    auto fut = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(fut.get(), std::runtime_error);
    // The pool survives a throwing task and keeps executing.
    auto ok = pool.submit([]() { return 7; });
    EXPECT_EQ(ok.get(), 7);
}

TEST(ParallelMap, MatchesSerialForAnyJobCount)
{
    const auto fn = [](size_t i) {
        // Index-derived value: the only legal randomness source for
        // deterministic fan-out.
        return static_cast<int>((i * 2654435761u) % 1000);
    };
    const std::vector<int> serial = parallelMap<int>(1, 100, fn);
    for (unsigned jobs : {2u, 4u, 16u})
        EXPECT_EQ(parallelMap<int>(jobs, 100, fn), serial)
            << "jobs=" << jobs;
}

TEST(ParallelMap, RethrowsLowestIndexedFailure)
{
    const auto fn = [](size_t i) -> int {
        if (i == 3)
            throw std::runtime_error("first");
        if (i == 11)
            throw std::logic_error("second");
        return static_cast<int>(i);
    };
    for (unsigned jobs : {1u, 4u}) {
        try {
            parallelMap<int>(jobs, 16, fn);
            FAIL() << "expected a throw, jobs=" << jobs;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "first") << "jobs=" << jobs;
        }
    }
}

TEST(ThreadPool, ExceptionStormAllFuturesObserved)
{
    // Many throwing tasks under contention: every future must carry
    // either its value or its exception — none lost, none doubled,
    // and the pool must stay usable throughout.
    ThreadPool pool(4);
    constexpr unsigned kTasks = 600;
    std::vector<std::future<int>> futs;
    futs.reserve(kTasks);
    for (unsigned i = 0; i < kTasks; ++i)
        futs.push_back(pool.submit([i]() -> int {
            if (i % 3 == 0)
                throw std::runtime_error("storm");
            return static_cast<int>(i);
        }));
    unsigned threw = 0, returned = 0;
    for (unsigned i = 0; i < kTasks; ++i) {
        try {
            const int v = futs[i].get();
            EXPECT_EQ(v, static_cast<int>(i));
            ++returned;
        } catch (const std::runtime_error &) {
            ++threw;
        }
    }
    EXPECT_EQ(threw, kTasks / 3);
    EXPECT_EQ(returned, kTasks - kTasks / 3);
    // And the pool still executes fresh work afterwards.
    EXPECT_EQ(pool.submit([]() { return 5; }).get(), 5);
}

TEST(ThreadPool, ShutdownWhileQueuedFulfillsEveryPromise)
{
    // Destroy the pool while tasks (some throwing) are still queued:
    // the destructor must drain them, so every future observed *after*
    // destruction is ready with its value or exception — shutdown may
    // never leave a broken promise behind.
    std::vector<std::future<int>> futs;
    {
        // 0 workers: nothing runs until the destructor runs the queue.
        ThreadPool pool(0);
        for (int i = 0; i < 50; ++i)
            futs.push_back(pool.submit([i]() -> int {
                if (i % 5 == 0)
                    throw std::logic_error("queued at shutdown");
                return i;
            }));
        for (const auto &f : futs)
            EXPECT_TRUE(f.valid());
    }
    int threw = 0;
    for (int i = 0; i < 50; ++i) {
        ASSERT_EQ(futs[static_cast<size_t>(i)].wait_for(
                      std::chrono::seconds(0)),
                  std::future_status::ready)
            << "task " << i << " dropped at shutdown";
        try {
            EXPECT_EQ(futs[static_cast<size_t>(i)].get(), i);
        } catch (const std::logic_error &) {
            ++threw;
        }
    }
    EXPECT_EQ(threw, 10);
}

TEST(ParallelMap, CancelledTokenSkipsRemainingTasks)
{
    // A token cancelled before the fan-out starts leaves every slot
    // default-constructed — the subset property in its purest form.
    CancelToken tok;
    tok.cancel();
    const auto out = parallelMap<int>(
        1, 16, [](size_t) { return 7; }, &tok);
    ASSERT_EQ(out.size(), 16u);
    for (const int v : out)
        EXPECT_EQ(v, 0);
}

TEST(ParallelMap, MidRunCancelStopsSerialFanOut)
{
    // Serial path: cancel fired by task 5 must stop the loop there.
    CancelToken tok;
    std::vector<int> ran;
    parallelMap<int>(1, 100, [&tok, &ran](size_t i) {
        ran.push_back(static_cast<int>(i));
        if (i == 5)
            tok.cancel();
        return 1;
    }, &tok);
    EXPECT_EQ(ran.size(), 6u);
}

TEST(ParallelMap, MidRunCancelStopsParallelFanOut)
{
    // Parallel path: task 5 cancels while the tasks after it wait for
    // it. When the cancel lands, each other executor holds at most one
    // task: one that already passed the poll runs (a late task may
    // then run), one that has not skips (an early task may then skip).
    // So early skips plus late runs stay within jobs - 1, and every
    // slot that ran holds exactly its uncancelled value.
    constexpr unsigned kJobs = 4;
    constexpr size_t kTasks = 1000;
    CancelToken tok;
    std::atomic<bool> cancelled{false};
    std::vector<std::atomic<int>> calls(kTasks);
    const auto out = parallelMap<int>(kJobs, kTasks, [&](size_t i) {
        ++calls[i];
        if (i == 5) {
            tok.cancel();
            cancelled = true;
        }
        while (i > 5 && !cancelled)
            std::this_thread::yield();
        return static_cast<int>(i) + 1;
    }, &tok);
    ASSERT_EQ(out[5], 6);
    unsigned early_skips = 0, late_runs = 0;
    for (size_t i = 0; i < kTasks; ++i) {
        ASSERT_LE(calls[i].load(), 1) << "index " << i;
        const bool ran = calls[i].load() == 1;
        EXPECT_EQ(out[i], ran ? static_cast<int>(i) + 1 : 0)
            << "index " << i;
        early_skips += i < 5 && !ran;
        late_runs += i > 5 && ran;
    }
    EXPECT_LE(early_skips + late_runs, kJobs - 1);
}

TEST(ParallelMap, HandlesFewerTasksThanJobs)
{
    // n = 0, n = 1 and 1 < n < jobs: every slot is filled exactly once.
    for (unsigned jobs : {1u, 2u, 4u, 16u}) {
        for (size_t n : {0u, 1u, 3u}) {
            std::vector<std::atomic<int>> calls(n);
            const auto out = parallelMap<size_t>(
                jobs, n, [&calls](size_t i) {
                    ++calls[i];
                    return 3 * i + 1;
                });
            ASSERT_EQ(out.size(), n) << "jobs=" << jobs;
            for (size_t i = 0; i < n; ++i) {
                EXPECT_EQ(out[i], 3 * i + 1)
                    << "jobs=" << jobs << " n=" << n;
                EXPECT_EQ(calls[i].load(), 1)
                    << "jobs=" << jobs << " n=" << n;
            }
        }
    }
}

TEST(ParallelMap, RunsEachIndexExactlyOnce)
{
    for (unsigned jobs : {2u, 4u, 16u}) {
        std::vector<std::atomic<int>> calls(1000);
        const auto out = parallelMap<size_t>(
            jobs, calls.size(), [&calls](size_t i) {
                ++calls[i];
                return i;
            });
        for (size_t i = 0; i < calls.size(); ++i) {
            EXPECT_EQ(calls[i].load(), 1)
                << "jobs=" << jobs << " index " << i;
            EXPECT_EQ(out[i], i) << "jobs=" << jobs;
        }
    }
}

TEST(ParallelMap, ExpiredDeadlineBehavesLikeCancel)
{
    const CancelToken tok = CancelToken::expiredToken();
    EXPECT_TRUE(tok.expired());
    EXPECT_TRUE(tok.stopRequested());
    for (unsigned jobs : {1u, 4u}) {
        const auto out = parallelMap<int>(
            jobs, 32, [](size_t) { return 3; }, &tok);
        for (const int v : out)
            EXPECT_EQ(v, 0) << "jobs=" << jobs;
    }
}
