/**
 * @file
 * Host-side FIFO thread pool for tasks submitted from any thread (the
 * service layer's pump tasks). This is *host* parallelism — it never
 * touches simulated time; each task owns its whole simulator instance
 * and the pool only spreads tasks across host cores.
 *
 * Design:
 *  - one mutex-guarded FIFO queue feeds every worker, so a
 *    single-worker pool runs tasks in submission order;
 *  - a task's result or exception lands in the std::future that
 *    submit() returns;
 *  - the destructor runs every queued task, then joins, so shutdown
 *    never leaves a promise broken.
 *
 * Fan-out drivers that merge results by task index use
 * host::parallelMap() (parallel.hpp), which needs no pool.
 */
#ifndef DIAG_HOST_THREAD_POOL_HPP
#define DIAG_HOST_THREAD_POOL_HPP

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stop_token>
#include <thread>
#include <type_traits>
#include <vector>

namespace diag::host
{

class ThreadPool
{
  public:
    /** Spawn @p threads workers. With 0, tasks run only in the
     *  destructor, on the destroying thread. */
    explicit ThreadPool(unsigned threads);

    /** Runs every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of spawned worker threads. */
    unsigned threads() const { return static_cast<unsigned>(workers_.size()); }

    /** Queue @p fn behind every earlier task. The future carries
     *  @p fn's result or its exception. */
    template <class Fn, class R = std::invoke_result_t<Fn &>>
    std::future<R>
    submit(Fn fn)
    {
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::move(fn));
        std::future<R> fut = task->get_future();
        {
            std::lock_guard<std::mutex> lk(m_);
            tasks_.emplace_back([task]() { (*task)(); });
        }
        cv_.notify_one();
        return fut;
    }

    /** max(1, std::thread::hardware_concurrency()). */
    static unsigned hardwareJobs();

  private:
    void workerLoop(std::stop_token stop);

    std::mutex m_;
    std::condition_variable_any cv_;
    std::deque<std::function<void()>> tasks_;
    /** Declared last: the workers use every member above. */
    std::vector<std::jthread> workers_;
};

} // namespace diag::host

#endif // DIAG_HOST_THREAD_POOL_HPP
