#include "host/thread_pool.hpp"

namespace diag::host
{

ThreadPool::ThreadPool(unsigned threads)
{
    workers_.reserve(threads);
    for (unsigned w = 0; w < threads; ++w)
        workers_.emplace_back(
            [this](std::stop_token stop) { workerLoop(stop); });
}

ThreadPool::~ThreadPool()
{
    // Each jthread asks its worker to stop, then joins it; a stopping
    // worker still drains the queue first.
    workers_.clear();
    // Only a 0-worker pool still holds tasks here. Run them rather than
    // drop their promises.
    while (!tasks_.empty()) {
        std::function<void()> task = std::move(tasks_.front());
        tasks_.pop_front();
        task();
    }
}

unsigned
ThreadPool::hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
ThreadPool::workerLoop(std::stop_token stop)
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(m_);
            if (!cv_.wait(lk, stop, [this]() { return !tasks_.empty(); }))
                return;  // stop requested, and nothing left to run
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

} // namespace diag::host
