/**
 * @file
 * Google-benchmark measurements of the diag-serve service layer:
 * end-to-end request throughput through the threaded SimService with
 * a warm result cache (the steady state of a batched sweep), the
 * uncached path (every request simulates), and the soak DES replay
 * rate (virtual requests scheduled per host second).
 *
 * The service cases run on worker threads, so their rates are
 * wall-clock (UseRealTime): process CPU time sums over the workers
 * and would hide any scaling. The 1-worker case shares its family's
 * clock so the worker-count columns compare. The soak replay is
 * single-threaded and stays on CPU time.
 */
#include <benchmark/benchmark.h>

// Throughput from an unoptimized build is not a measurement. A Debug
// configure does not define this target; this catches any other flag
// set without optimization.
#if !defined(__OPTIMIZE__)
#error "bench_serve_throughput requires an optimized build: configure \
with -DCMAKE_BUILD_TYPE=Release"
#endif

#include <vector>

#include "serve/service.hpp"
#include "serve/soak.hpp"

using namespace diag;

namespace
{

serve::SimRequest
request(u64 id)
{
    serve::SimRequest q;
    q.id = id;
    q.workload = "nn";
    q.config = "F4C2";
    return q;
}

/** Steady state: repeat contents, verified cache hits. */
void
BM_ServeThroughputCached(benchmark::State &state)
{
    serve::ServiceConfig cfg;
    cfg.workers = static_cast<unsigned>(state.range(0));
    cfg.queue.capacity = 256;
    serve::SimService svc(cfg);
    // Warm the cache outside the timed region.
    svc.submit(request(0)).result.get();

    u64 id = 1;
    u64 served = 0;
    const unsigned kBatch = 64;
    for (auto _ : state) {
        std::vector<serve::SimService::Ticket> tickets;
        tickets.reserve(kBatch);
        for (unsigned i = 0; i < kBatch; ++i)
            tickets.push_back(svc.submit(request(id++)));
        for (auto &t : tickets)
            benchmark::DoNotOptimize(t.result.get().status);
        served += kBatch;
    }
    state.counters["requests_per_s"] = benchmark::Counter(
        static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeThroughputCached)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/** Every request pays a full simulation (cache disabled). */
void
BM_ServeThroughputUncached(benchmark::State &state)
{
    serve::ServiceConfig cfg;
    cfg.workers = static_cast<unsigned>(state.range(0));
    cfg.queue.capacity = 256;
    cfg.cache_enabled = false;
    serve::SimService svc(cfg);

    u64 id = 1;
    u64 served = 0;
    const unsigned kBatch = 4;
    for (auto _ : state) {
        std::vector<serve::SimService::Ticket> tickets;
        tickets.reserve(kBatch);
        for (unsigned i = 0; i < kBatch; ++i)
            tickets.push_back(svc.submit(request(id++)));
        for (auto &t : tickets)
            benchmark::DoNotOptimize(t.result.get().status);
        served += kBatch;
    }
    state.counters["requests_per_s"] = benchmark::Counter(
        static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeThroughputUncached)->Arg(1)->Arg(2)->UseRealTime();

/** The soak DES end to end, fault injection included. */
void
BM_SoakReplay(benchmark::State &state)
{
    serve::SoakSpec spec;
    spec.requests = static_cast<unsigned>(state.range(0));
    spec.jobs = 1;
    spec.faults.crash_pct = 10;
    spec.faults.stall_pct = 5;
    spec.faults.corrupt_pct = 30;
    u64 replayed = 0;
    for (auto _ : state) {
        const serve::SoakReport rep = serve::runSoak(spec);
        benchmark::DoNotOptimize(rep.ok);
        replayed += rep.requests;
    }
    state.counters["requests_per_s"] = benchmark::Counter(
        static_cast<double>(replayed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SoakReplay)->Arg(200);

} // namespace

BENCHMARK_MAIN();
