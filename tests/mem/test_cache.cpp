/** Cache model tests: hit/miss behaviour, LRU, banking, write-back. */
#include <gtest/gtest.h>

#include "mem/cache.hpp"

using namespace diag;
using namespace diag::mem;

namespace
{

CacheParams
smallCache()
{
    CacheParams p;
    p.size_bytes = 1024;   // 4 sets x 4 ways x 64B
    p.assoc = 4;
    p.line_bytes = 64;
    p.banks = 1;
    p.hit_latency = 4;
    p.bank_occupancy = 1;
    return p;
}

} // namespace

TEST(Cache, ColdMissThenHit)
{
    Cache c("c", smallCache());
    const CacheLookup miss = c.access(0x1000, false, 10);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.grant, 10u);
    c.fill(0x1000, false, 50);
    const CacheLookup hit = c.access(0x1000, false, 60);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.done, 60u + 4u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    Cache c("c", smallCache());
    c.fill(0x1000, false, 0);
    EXPECT_TRUE(c.access(0x103f, false, 10).hit);
    EXPECT_FALSE(c.access(0x1040, false, 20).hit);
}

TEST(Cache, LruEviction)
{
    Cache c("c", smallCache());  // 4 sets; set stride is 256 bytes
    // Four lines mapping to set 0 fill all ways.
    for (u32 i = 0; i < 4; ++i)
        c.fill(0x1000 + i * 0x100, false, i);
    // Touch lines 1..3 so line 0 is LRU.
    for (u32 i = 1; i < 4; ++i)
        EXPECT_TRUE(c.access(0x1000 + i * 0x100, false, 10 + i).hit);
    // A fifth line evicts line 0.
    c.fill(0x1000 + 4 * 0x100, false, 20);
    EXPECT_FALSE(c.access(0x1000, false, 30).hit);
    EXPECT_TRUE(c.access(0x1400, false, 40).hit);
}

TEST(Cache, DirtyEvictionSignalsWriteback)
{
    Cache c("c", smallCache());
    c.fill(0x1000, true, 0);  // dirty fill
    for (u32 i = 1; i < 4; ++i)
        c.fill(0x1000 + i * 0x100, false, i);
    // Evicting the dirty line returns true.
    EXPECT_TRUE(c.fill(0x1000 + 4 * 0x100, false, 10));
    EXPECT_EQ(c.counters()[CacheCounter::writebacks], 1u);
}

TEST(Cache, WriteHitSetsDirty)
{
    Cache c("c", smallCache());
    c.fill(0x1000, false, 0);
    EXPECT_TRUE(c.access(0x1000, true, 5).hit);
    for (u32 i = 1; i < 4; ++i)
        c.fill(0x1000 + i * 0x100, false, i + 10);
    EXPECT_TRUE(c.fill(0x1500, false, 20));  // dirty writeback
}

TEST(Cache, BankConflictSerializes)
{
    // Banks are word-interleaved at 8-byte grain: accesses to the same
    // 8-byte word conflict; accesses 8 bytes apart use separate banks.
    CacheParams p = smallCache();
    p.banks = 2;
    p.bank_occupancy = 3;
    Cache c("c", p);
    c.fill(0x1000, false, 0);
    const CacheLookup a = c.access(0x1000, false, 100);
    const CacheLookup b = c.access(0x1004, false, 100);  // same word8
    const CacheLookup d = c.access(0x1008, false, 100);  // next bank
    EXPECT_EQ(a.grant, 100u);
    EXPECT_EQ(b.grant, 103u);  // waits for occupancy
    EXPECT_EQ(d.grant, 100u);  // independent bank
    // 16 bytes apart wraps back to the first bank.
    const CacheLookup e = c.access(0x1010, false, 100);
    EXPECT_EQ(e.grant, 106u);
}

TEST(Cache, DirectMapped)
{
    CacheParams p = smallCache();
    p.assoc = 1;  // 16 sets
    Cache c("dm", p);
    c.fill(0x0000, false, 0);
    EXPECT_TRUE(c.access(0x0000, false, 1).hit);
    // Same set (stride = 1024), conflicting line evicts immediately.
    c.fill(0x0400, false, 2);
    EXPECT_FALSE(c.access(0x0000, false, 3).hit);
}

TEST(Cache, StatsCount)
{
    Cache c("c", smallCache());
    c.access(0x0, false, 0);
    c.fill(0x0, false, 0);
    c.access(0x0, false, 1);
    c.access(0x0, true, 2);
    EXPECT_EQ(c.counters()[CacheCounter::reads], 2u);
    EXPECT_EQ(c.counters()[CacheCounter::writes], 1u);
    EXPECT_EQ(c.counters()[CacheCounter::hits], 2u);
    EXPECT_EQ(c.counters()[CacheCounter::misses], 1u);
    c.reset();
    EXPECT_EQ(c.counters()[CacheCounter::hits], 0u);
    EXPECT_FALSE(c.access(0x0, false, 0).hit);  // invalidated
}
