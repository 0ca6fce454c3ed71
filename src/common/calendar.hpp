/**
 * @file
 * Order-tolerant occupancy calendar for shared hardware resources
 * (cache banks, DRAM channels, buses).
 *
 * The engines in this project process software threads sequentially
 * while their timestamps interleave in simulated time, so requests can
 * arrive at a shared resource out of time order. A plain busy-until
 * scalar would push an early-time request from a later-processed thread
 * behind another thread's far-future reservation — serializing threads
 * that really run in parallel. The calendar instead keeps a bounded,
 * sorted window of reserved intervals and grants each request the first
 * gap at or after its arrival time, independent of processing order.
 * Intervals already over at the arrival time are skipped by binary
 * search (DESIGN.md §5.1), so a request costs O(log n) plus the gaps
 * it walks past.
 */
#ifndef DIAG_COMMON_CALENDAR_HPP
#define DIAG_COMMON_CALENDAR_HPP

#include <algorithm>
#include <vector>

#include "common/types.hpp"

namespace diag
{

/** Single-server reservation calendar with a bounded history window. */
class BusyCalendar
{
  public:
    explicit BusyCalendar(size_t capacity = 96) : cap_(capacity) {}

    /**
     * First gap of @p occupancy cycles at or after @p now, without
     * reserving it.
     */
    Cycle
    probe(Cycle now, Cycle occupancy) const
    {
        return findGap(now, occupancy).start;
    }

    /**
     * Reserve the resource for @p occupancy cycles at the first gap at
     * or after @p now. Returns the grant (service start) cycle.
     */
    Cycle
    reserve(Cycle now, Cycle occupancy)
    {
        const Gap gap = findGap(now, occupancy);
        iv_.insert(iv_.begin() + static_cast<long>(gap.pos),
                   {gap.start, gap.start + occupancy});
        if (iv_.size() > cap_)
            iv_.erase(iv_.begin());  // forget the oldest reservation
        return gap.start;
    }

    /** True iff some reservation covers cycle @p t. */
    bool
    busyAt(Cycle t) const
    {
        const auto it = firstEndingAfter(t);
        return it != iv_.end() && it->start <= t;
    }

    void clear() { iv_.clear(); }

    size_t size() const { return iv_.size(); }

  private:
    struct Interval
    {
        Cycle start;
        Cycle end;
    };

    /** A free slot: its start cycle and the insertion index. */
    struct Gap
    {
        Cycle start;
        size_t pos;
    };

    /**
     * First reservation that ends after @p t. Every reservation is
     * placed in a gap, so the intervals are disjoint and sorted by
     * start, hence also by end: the ones ending at or before @p t form
     * a prefix, found by binary search.
     */
    std::vector<Interval>::const_iterator
    firstEndingAfter(Cycle t) const
    {
        return std::partition_point(
            iv_.begin(), iv_.end(),
            [t](const Interval &iv) { return iv.end <= t; });
    }

    /** Shared search of probe() and reserve(). */
    Gap
    findGap(Cycle now, Cycle occupancy) const
    {
        Cycle t = now;
        auto it = firstEndingAfter(now);
        for (; it != iv_.end(); ++it) {
            if (t + occupancy <= it->start)
                break;  // the gap before this interval fits
            t = std::max(t, it->end);
        }
        return {t, static_cast<size_t>(it - iv_.begin())};
    }

    size_t cap_;
    std::vector<Interval> iv_;  // sorted by start and by end, disjoint
};

} // namespace diag

#endif // DIAG_COMMON_CALENDAR_HPP
