/** Hierarchy tests: level escalation, shared-L2 behaviour, bus model. */
#include <gtest/gtest.h>

#include "mem/bus.hpp"
#include "mem/hierarchy.hpp"

using namespace diag;
using namespace diag::mem;

namespace
{

MemParams
tinyParams()
{
    MemParams p;
    p.l1i = {4 * 1024, 1, 64, 1, 2, 1};
    p.l1d = {4 * 1024, 2, 64, 2, 4, 1};
    p.l2 = {64 * 1024, 4, 64, 4, 20, 2};
    p.dram = {120, 8};
    return p;
}

} // namespace

TEST(Hierarchy, ColdAccessGoesToDram)
{
    MemHierarchy mh(tinyParams(), 1);
    const MemResult r = mh.dataAccess(0, 0x1000, false, 0);
    EXPECT_EQ(r.level, ServedBy::Dram);
    // l1 tag check (4) + l2 tag check (20) + dram (120) + fill
    EXPECT_GT(r.done, 120u);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    MemHierarchy mh(tinyParams(), 1);
    const MemResult cold = mh.dataAccess(0, 0x1000, false, 0);
    const MemResult warm = mh.dataAccess(0, 0x1000, false, cold.done);
    EXPECT_EQ(warm.level, ServedBy::L1);
    EXPECT_EQ(warm.done, cold.done + 4);
}

TEST(Hierarchy, L1EvictionStillHitsL2)
{
    MemParams p = tinyParams();
    MemHierarchy mh(p, 1);
    // L1D: 4KB 2-way = 32 sets. Lines 0x1000, 0x1800, 0x2000 share set 0
    // (set stride = 32 * 64 = 2KB).
    mh.dataAccess(0, 0x1000, false, 0);
    mh.dataAccess(0, 0x1800, false, 1000);
    mh.dataAccess(0, 0x2000, false, 2000);  // evicts 0x1000 from L1
    const MemResult r = mh.dataAccess(0, 0x1000, false, 3000);
    EXPECT_EQ(r.level, ServedBy::L2);
}

TEST(Hierarchy, PortsHavePrivateL1s)
{
    MemHierarchy mh(tinyParams(), 2);
    mh.dataAccess(0, 0x1000, false, 0);
    // Port 1 misses its own L1 but hits the shared L2.
    const MemResult r = mh.dataAccess(1, 0x1000, false, 1000);
    EXPECT_EQ(r.level, ServedBy::L2);
}

TEST(Hierarchy, InstructionFetchSeparateFromData)
{
    MemHierarchy mh(tinyParams(), 1);
    mh.fetchLine(0, 0x1000, 0);
    const MemResult refetch = mh.fetchLine(0, 0x1000, 1000);
    EXPECT_EQ(refetch.level, ServedBy::L1);
    // Data side is cold for the same address.
    const MemResult data = mh.dataAccess(0, 0x1000, false, 2000);
    EXPECT_EQ(data.level, ServedBy::L2);  // L2 was filled by the ifetch
}

TEST(Hierarchy, DramChannelContention)
{
    MemParams p = tinyParams();
    MemHierarchy mh(p, 1);
    // Two concurrent cold misses to different L2 banks: second DRAM
    // access waits for the channel occupancy of the first.
    const MemResult a = mh.dataAccess(0, 0x10000, false, 0);
    const MemResult b = mh.dataAccess(0, 0x20040, false, 0);
    EXPECT_EQ(a.level, ServedBy::Dram);
    EXPECT_EQ(b.level, ServedBy::Dram);
    EXPECT_GE(b.done, a.done);
    EXPECT_GE(b.done - a.done, p.dram.line_occupancy);
}

TEST(Hierarchy, ResetRestoresColdState)
{
    MemHierarchy mh(tinyParams(), 1);
    mh.dataAccess(0, 0x1000, false, 0);
    mh.reset();
    const MemResult r = mh.dataAccess(0, 0x1000, false, 0);
    EXPECT_EQ(r.level, ServedBy::Dram);
}

TEST(Hierarchy, MergedStats)
{
    MemHierarchy mh(tinyParams(), 2);
    mh.dataAccess(0, 0x1000, false, 0);
    mh.dataAccess(1, 0x2000, false, 0);
    StatGroup out("mem");
    mh.emitCounters(out);
    EXPECT_EQ(out.get("l1d.misses"), 2.0);
    EXPECT_EQ(out.get("l2.misses"), 2.0);
    EXPECT_EQ(out.get("dram.accesses"), 2.0);
}

TEST(Bus, FcfsOccupancy)
{
    Bus bus;
    EXPECT_EQ(bus.request(10, 2), 10u);
    EXPECT_EQ(bus.request(10, 2), 12u);   // queued behind first
    EXPECT_EQ(bus.request(11, 2), 14u);
    EXPECT_FALSE(bus.busyAt(100));
    EXPECT_TRUE(bus.busyAt(15));
    EXPECT_EQ(bus.counters()[BusCounter::transfers], 3u);
    EXPECT_EQ(bus.counters()[BusCounter::wait_cycles], 5u);
    bus.reset();
    EXPECT_EQ(bus.request(0, 1), 0u);
}
