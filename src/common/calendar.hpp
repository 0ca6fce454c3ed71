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
 * gap at or after its arrival time. Grants are independent of
 * processing order only while nothing has been dropped: a full window
 * drops the reservation that starts earliest, and a later request that
 * arrives before it no longer sees it.
 * The search for the first interval still open at the arrival time
 * starts from the newest reservation and steps back in doubling
 * strides before a binary search inside the last stride (DESIGN.md
 * §5.1): most requests arrive near the latest reservations, so a
 * request costs O(log k), k being the reservations that end after it
 * arrives, plus the gaps it walks past. A drop only advances a front
 * offset; the dropped prefix is erased once every `capacity` drops.
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
        if (size() > cap_ && ++head_ >= cap_) {  // dropped the earliest
            // Erase the dropped prefix once every cap_ drops.
            iv_.erase(iv_.begin(), iv_.begin() + static_cast<long>(head_));
            head_ = 0;
        }
        return gap.start;
    }

    /** True iff some reservation covers cycle @p t. */
    bool
    busyAt(Cycle t) const
    {
        const size_t i = firstEndingAfter(t);
        return i < iv_.size() && iv_[i].start <= t;
    }

    void
    clear()
    {
        iv_.clear();
        head_ = 0;
    }

    /** Live reservations. */
    size_t size() const { return iv_.size() - head_; }

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
     * Index of the first live reservation that ends after @p t. Every
     * reservation is placed in a gap, so the intervals are disjoint
     * and sorted by start, hence also by end: the ones ending at or
     * before @p t form a prefix. Its end is searched for back from the
     * newest reservation in doubling strides, then by binary search
     * inside the last stride.
     */
    size_t
    firstEndingAfter(Cycle t) const
    {
        size_t lo = head_;         // everything before lo ends by t
        size_t hi = iv_.size();    // everything from hi ends after t
        for (size_t stride = 1; hi > lo; stride *= 2) {
            const size_t i = hi - std::min(stride, hi - lo);
            if (iv_[i].end <= t) {
                lo = i + 1;
                break;
            }
            hi = i;
        }
        return static_cast<size_t>(
            std::partition_point(
                iv_.begin() + static_cast<long>(lo),
                iv_.begin() + static_cast<long>(hi),
                [t](const Interval &iv) { return iv.end <= t; }) -
            iv_.begin());
    }

    /** Shared search of probe() and reserve(). */
    Gap
    findGap(Cycle now, Cycle occupancy) const
    {
        Cycle t = now;
        size_t i = firstEndingAfter(now);
        for (; i < iv_.size(); ++i) {
            if (t + occupancy <= iv_[i].start)
                break;  // the gap before this interval fits
            t = std::max(t, iv_[i].end);
        }
        return {t, i};
    }

    size_t cap_;
    /** Live reservations are iv_[head_..]; the ones before were
     *  dropped. Sorted by start and by end, disjoint. */
    std::vector<Interval> iv_;
    size_t head_ = 0;
};

} // namespace diag

#endif // DIAG_COMMON_CALENDAR_HPP
