/**
 * @file
 * Occupancy model of a shared on-chip bus. DiAG uses one 512-bit bus per
 * processor for both I-cache line delivery and partial-register-file
 * transfers between non-adjacent clusters (paper §5.1.3); contention on
 * it is one source of the "other stalls" in §7.3.2.
 */
#ifndef DIAG_MEM_BUS_HPP
#define DIAG_MEM_BUS_HPP

#include "common/calendar.hpp"
#include "common/counters.hpp"

namespace diag::mem
{

#define DIAG_BUS_COUNTERS(X) X(transfers) X(wait_cycles)

/** Bus activity: transfers granted and cycles requests waited. */
DIAG_COUNTER_SET(BusCounter, DIAG_BUS_COUNTERS)

/** Single-requester-at-a-time bus with FCFS arbitration. */
class Bus
{
  public:
    /**
     * Request the bus at @p now for @p occupancy cycles. Returns the
     * grant cycle; the transfer completes at grant + occupancy.
     */
    Cycle
    request(Cycle now, Cycle occupancy)
    {
        const Cycle grant = calendar_.reserve(now, occupancy);
        ++counters_[BusCounter::transfers];
        counters_[BusCounter::wait_cycles] += grant - now;
        return grant;
    }

    /** True iff a request granted at @p now would have to wait. */
    bool busyAt(Cycle now) const { return calendar_.busyAt(now); }

    void reset() { calendar_.clear(); counters_.reset(); }

    const CounterSet<BusCounter> &counters() const { return counters_; }

  private:
    BusyCalendar calendar_;
    CounterSet<BusCounter> counters_;
};

} // namespace diag::mem

#endif // DIAG_MEM_BUS_HPP
