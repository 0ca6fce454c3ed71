/**
 * @file
 * Deterministic fan-out/merge for the multi-run drivers.
 *
 * parallelMap() is the result-merge layer every multi-run driver
 * (campaigns, validation sweeps, figure benches) goes through: task i
 * writes only slot i of the output, so the merged vector is in task
 * order no matter which thread ran what when. Combined with per-task
 * seeding by index, a driver's output is byte-identical for any job
 * count — `--jobs N` may only change wall-clock time.
 */
#ifndef DIAG_HOST_PARALLEL_HPP
#define DIAG_HOST_PARALLEL_HPP

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "host/cancel.hpp"
#include "host/thread_pool.hpp"

namespace diag::host
{

/** Resolve a --jobs request: 0 means "one per hardware thread". */
inline unsigned
resolveJobs(unsigned requested)
{
    return requested ? requested : ThreadPool::hardwareJobs();
}

/**
 * Evaluate fn(0..n-1) on min(jobs, n) executors and return the results
 * indexed by input. The calling thread is one executor and the rest
 * are helper threads; each executor takes the next unclaimed index
 * from one shared counter. jobs==1 (or n<=1) runs inline with no
 * threads at all — the serial reference path. If any call throws,
 * every task still settles, then the exception of the lowest-indexed
 * failing task is rethrown.
 *
 * @p cancel, when non-null, is polled before each task starts: once
 * it fires, tasks that have not begun are skipped and their output
 * slots stay default-constructed (tasks already running finish — the
 * cancellation is cooperative; bodies that want to stop mid-task must
 * poll the token themselves). Skipping is a pure subset operation:
 * slots that did run hold exactly the bytes an uncancelled run would
 * have produced, so callers can tell skipped from executed by any
 * task-set marker of their own (an index, a nonzero field).
 */
template <class T, class Fn>
std::vector<T>
parallelMap(unsigned jobs, size_t n, Fn fn,
            const CancelToken *cancel = nullptr)
{
    std::vector<T> out(n);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<size_t> next{0};
    const auto work = [&]() {
        for (size_t i; (i = next.fetch_add(1)) < n;) {
            if (cancel && cancel->stopRequested())
                return;
            try {
                out[i] = fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };
    {
        const size_t executors = std::min<size_t>(resolveJobs(jobs), n);
        std::vector<std::jthread> helpers;
        for (size_t h = 1; h < executors; ++h)
            helpers.emplace_back(work);
        work();
    } // joins the helpers: every task has settled
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    return out;
}

} // namespace diag::host

#endif // DIAG_HOST_PARALLEL_HPP
