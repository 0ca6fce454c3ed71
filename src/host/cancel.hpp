/**
 * @file
 * Cooperative cancellation for host-side execution: a CancelToken is a
 * small shared flag (plus an optional wall-clock deadline) that long
 * simulator loops poll at activation boundaries and fan-out drivers
 * poll between tasks. Cancellation is *host* policy — it never alters
 * any simulated cycle; a run that observes its token simply stops
 * early with a structured timeout (RunStats::timed_out and a
 * stop_reason naming the token's state).
 *
 * Two stop sources share one token so every polling site stays a
 * single check:
 *  - cancel(): an explicit request (a client abandoned the request,
 *    a service is shutting down);
 *  - a deadline: a steady-clock instant after which the token reports
 *    expired — the wall-clock watchdog that keeps one pathological
 *    seed from wedging a CI job or a service worker.
 *
 * Tokens are copyable handles to shared state; all members are safe to
 * call from any thread. The cancelled flag is a cheap atomic load;
 * expired() reads the steady clock, so hot loops rate-limit it (both
 * engines' units check the flag every boundary but the clock only
 * every 64th, see sim::boundaryStop).
 */
#ifndef DIAG_HOST_CANCEL_HPP
#define DIAG_HOST_CANCEL_HPP

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>

#include "common/types.hpp"

namespace diag::host
{

class CancelToken
{
  public:
    using Clock = std::chrono::steady_clock;

    CancelToken() : st_(std::make_shared<State>()) {}

    /** Token that is already expired — every poll site stops at its
     *  first check. The deterministic test hook for watchdog paths. */
    static CancelToken
    expiredToken()
    {
        CancelToken t;
        t.setDeadline(Clock::now() - std::chrono::seconds(1));
        return t;
    }

    /** Token that expires @p ms milliseconds from now (0 = already). */
    static CancelToken
    withTimeout(u64 ms)
    {
        CancelToken t;
        t.setDeadline(Clock::now() + std::chrono::milliseconds(ms));
        return t;
    }

    /** Request cancellation; idempotent, visible to every holder. */
    void
    cancel()
    {
        st_->cancelled.store(true, std::memory_order_release);
    }

    /** Arm (or re-arm) the wall-clock deadline. */
    void
    setDeadline(Clock::time_point when)
    {
        st_->deadline_ns.store(
            when.time_since_epoch().count(),
            std::memory_order_release);
    }

    /** Explicitly cancelled (does not consult the clock). */
    bool
    cancelled() const
    {
        return st_->cancelled.load(std::memory_order_acquire);
    }

    /** The armed deadline has passed (false when none is armed). */
    bool
    expired() const
    {
        const auto ns =
            st_->deadline_ns.load(std::memory_order_acquire);
        return ns != kNoDeadline &&
               Clock::now().time_since_epoch().count() >= ns;
    }

    /** Cancelled or expired — the one check poll sites make. */
    bool stopRequested() const { return cancelled() || expired(); }

    /** Why the token fired, for stop_reason strings. */
    const char *
    reason() const
    {
        return cancelled() ? "cancelled" : "host deadline exceeded";
    }

  private:
    static constexpr long long kNoDeadline =
        std::numeric_limits<long long>::max();

    struct State
    {
        std::atomic<bool> cancelled{false};
        std::atomic<long long> deadline_ns{kNoDeadline};
    };

    std::shared_ptr<State> st_;
};

} // namespace diag::host

#endif // DIAG_HOST_CANCEL_HPP
