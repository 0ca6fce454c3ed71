/** BusyCalendar tests: order-tolerant reservations, gap filling,
 *  probe/reserve agreement, capacity bounding, and a seeded
 *  differential check against a linear-scan reference. */
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/calendar.hpp"
#include "common/rng.hpp"

using namespace diag;

TEST(Calendar, MonotonicRequestsBehaveLikeBusyUntil)
{
    BusyCalendar cal;
    EXPECT_EQ(cal.reserve(10, 2), 10u);
    EXPECT_EQ(cal.reserve(10, 2), 12u);
    EXPECT_EQ(cal.reserve(11, 2), 14u);
    EXPECT_EQ(cal.reserve(100, 1), 100u);
}

TEST(Calendar, EarlyRequestSlotsIntoGap)
{
    BusyCalendar cal;
    // A far-future reservation must not block an earlier request.
    EXPECT_EQ(cal.reserve(1000, 5), 1000u);
    EXPECT_EQ(cal.reserve(10, 2), 10u);
    // The gap between 12 and 1000 is still usable.
    EXPECT_EQ(cal.reserve(12, 988), 12u);
    // Now 10..1005 is fully booked.
    EXPECT_EQ(cal.reserve(10, 1), 1005u);
}

TEST(Calendar, ExactFitGap)
{
    BusyCalendar cal;
    cal.reserve(10, 2);   // [10,12)
    cal.reserve(14, 2);   // [14,16)
    EXPECT_EQ(cal.reserve(10, 2), 12u);  // exactly fills [12,14)
    EXPECT_EQ(cal.reserve(10, 2), 16u);  // everything before is full
}

TEST(Calendar, TooSmallGapIsSkipped)
{
    BusyCalendar cal;
    cal.reserve(10, 2);   // [10,12)
    cal.reserve(13, 2);   // [13,15)
    // A 2-cycle request does not fit the 1-cycle gap [12,13).
    EXPECT_EQ(cal.reserve(11, 2), 15u);
}

TEST(Calendar, ProbeMatchesReserveWithoutMutation)
{
    BusyCalendar cal;
    cal.reserve(10, 4);
    const Cycle p1 = cal.probe(10, 2);
    const Cycle p2 = cal.probe(10, 2);
    EXPECT_EQ(p1, p2);  // probe does not reserve
    EXPECT_EQ(cal.reserve(10, 2), p1);
}

TEST(Calendar, BusyAt)
{
    BusyCalendar cal;
    cal.reserve(10, 3);
    EXPECT_FALSE(cal.busyAt(9));
    EXPECT_TRUE(cal.busyAt(10));
    EXPECT_TRUE(cal.busyAt(12));
    EXPECT_FALSE(cal.busyAt(13));
}

TEST(Calendar, CapacityDropsOldest)
{
    BusyCalendar cal(4);
    for (Cycle t = 0; t < 50; t += 10)
        cal.reserve(t, 1);  // five reservations, capacity four
    EXPECT_EQ(cal.size(), 4u);
    // The oldest interval [0,1) was forgotten: reserving there is free.
    EXPECT_EQ(cal.reserve(0, 1), 0u);
}

TEST(Calendar, ClearEmpties)
{
    BusyCalendar cal;
    cal.reserve(5, 5);
    cal.clear();
    EXPECT_EQ(cal.size(), 0u);
    EXPECT_EQ(cal.reserve(5, 5), 5u);
}

namespace
{

/**
 * Reference calendar: the straightforward linear-scan search that
 * BusyCalendar's backward search must match call by call, including
 * the earliest-first eviction at capacity.
 */
class LinearCalendar
{
  public:
    explicit LinearCalendar(size_t capacity) : cap_(capacity) {}

    Cycle
    probe(Cycle now, Cycle occupancy) const
    {
        size_t pos = 0;
        return scan(now, occupancy, pos);
    }

    Cycle
    reserve(Cycle now, Cycle occupancy)
    {
        size_t pos = 0;
        const Cycle t = scan(now, occupancy, pos);
        iv_.insert(iv_.begin() + static_cast<long>(pos),
                   {t, t + occupancy});
        if (iv_.size() > cap_)
            iv_.erase(iv_.begin());
        return t;
    }

    bool
    busyAt(Cycle t) const
    {
        for (const auto &[start, end] : iv_)
            if (start <= t && t < end)
                return true;
        return false;
    }

    size_t size() const { return iv_.size(); }

    /** Start of the earliest live reservation (kNeverCycle if none). */
    Cycle
    firstStart() const
    {
        return iv_.empty() ? kNeverCycle : iv_.front().first;
    }

  private:
    Cycle
    scan(Cycle now, Cycle occupancy, size_t &pos) const
    {
        Cycle t = now;
        pos = 0;
        while (pos < iv_.size() && iv_[pos].second <= t)
            ++pos;
        while (pos < iv_.size() && t + occupancy > iv_[pos].first) {
            t = std::max(t, iv_[pos].second);
            ++pos;
        }
        return t;
    }

    size_t cap_;
    std::vector<std::pair<Cycle, Cycle>> iv_;  // (start, end)
};

/**
 * One seeded sequence of probe/reserve calls against both calendars.
 * Arrival times wander around a slowly advancing base, jump back into
 * already-booked history and occasionally far ahead, so requests come
 * out of time order, fill gaps and overflow the capacity window.
 */
void
driveSequence(u64 seed, size_t capacity, unsigned calls)
{
    BusyCalendar cal(capacity);
    LinearCalendar ref(capacity);
    Rng rng(seed);
    Cycle base = 100;
    for (unsigned k = 0; k < calls; ++k) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " cap "
                                          << capacity << " call " << k);
        base += rng.below(4);
        Cycle now = base + rng.below(48);
        const u64 shape = rng.below(16);
        if (shape == 0) {
            now = base + 200 + rng.below(400);  // far-future request
        } else if (shape == 1) {
            // Before every live reservation: the search for the first
            // one still ending after `now` crosses the whole window.
            now = std::min(now, ref.firstStart());
            now -= std::min<Cycle>(now, rng.below(8));
        } else if (shape < 6) {
            now -= std::min<Cycle>(now, rng.below(96));  // early request
        }
        const Cycle occupancy = rng.below(9);

        const Cycle probed = cal.probe(now, occupancy);
        ASSERT_EQ(probed, ref.probe(now, occupancy));
        if (rng.below(4) != 0) {
            const Cycle granted = cal.reserve(now, occupancy);
            ASSERT_EQ(granted, probed);
            ASSERT_EQ(granted, ref.reserve(now, occupancy));
        }
        ASSERT_LE(cal.size(), capacity);
        ASSERT_EQ(cal.size(), ref.size());
        const Cycle t = base + rng.below(64) - std::min<Cycle>(base, 32);
        ASSERT_EQ(cal.busyAt(t), ref.busyAt(t)) << "busyAt " << t;
    }
}

} // namespace

TEST(Calendar, MatchesLinearScanReference)
{
    // Capacities 2 and 3 drop a reservation every few calls.
    for (const size_t capacity :
         {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{96}}) {
        for (u64 seed = 1; seed <= 8; ++seed) {
            driveSequence(seed, capacity, 2000);
            if (HasFatalFailure())
                return;
        }
    }
}
