/** SparseMemory edge cases: page-straddling accesses, zero-fill
 *  read-before-write, huge-address sparsity, and deep-copy isolation
 *  (the fault campaign's checkpoint/compare paths lean on all four). */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/sparse_mem.hpp"

using namespace diag;

TEST(SparseMemory, ReadBeforeWriteIsZeroAndAllocationFree)
{
    SparseMemory mem;
    EXPECT_EQ(mem.read8(0x0), 0u);
    EXPECT_EQ(mem.read32(0x1234), 0u);
    EXPECT_EQ(mem.read32(0xdead'0000), 0u);
    // Reads are non-faulting and must not materialize pages.
    EXPECT_EQ(mem.numPages(), 0u);
}

TEST(SparseMemory, MisalignedWriteStraddlesPageBoundary)
{
    SparseMemory mem;
    const Addr last = SparseMemory::kPageSize - 2;  // 0xffe
    mem.write32(last, 0xaabbccdd);
    EXPECT_EQ(mem.read32(last), 0xaabbccddu);
    // Little-endian: low half on page 0, high half on page 1.
    EXPECT_EQ(mem.read8(last + 0), 0xddu);
    EXPECT_EQ(mem.read8(last + 1), 0xccu);
    EXPECT_EQ(mem.read8(last + 2), 0xbbu);
    EXPECT_EQ(mem.read8(last + 3), 0xaau);
    EXPECT_EQ(mem.numPages(), 2u);
}

TEST(SparseMemory, EveryStraddlingOffsetRoundTrips)
{
    constexpr Addr kEdge = 5 * SparseMemory::kPageSize;
    const u32 value = 0x8192a3b4;
    for (const unsigned bytes : {2u, 4u}) {
        for (unsigned before = 1; before < bytes; ++before) {
            SCOPED_TRACE(::testing::Message() << bytes << " bytes, "
                                              << before << " before the edge");
            SparseMemory mem;
            const Addr addr = kEdge - before;
            mem.write(addr, value, bytes);
            EXPECT_EQ(mem.numPages(), 2u);
            const u32 mask = bytes == 4 ? ~0u : 0xffffu;
            EXPECT_EQ(mem.read(addr, bytes), value & mask);
            for (unsigned i = 0; i < bytes; ++i)
                EXPECT_EQ(mem.read8(addr + i), (value >> (8 * i)) & 0xff)
                    << "byte " << i;
            // Nothing outside [addr, addr + bytes) was written.
            EXPECT_EQ(mem.read8(addr - 1), 0u);
            EXPECT_EQ(mem.read8(addr + bytes), 0u);
        }
    }
}

TEST(SparseMemory, StraddlingReadOfAnAbsentPageReadsZeroAndAllocatesNothing)
{
    constexpr Addr kEdge = 7 * SparseMemory::kPageSize;
    // Only the page below the edge is resident.
    SparseMemory low;
    low.write8(kEdge - 1, 0xa5);
    EXPECT_EQ(low.read16(kEdge - 1), 0x00a5u);
    for (unsigned before = 1; before < 4; ++before)
        EXPECT_EQ(low.read32(kEdge - before), 0xa5u << (8 * (before - 1)))
            << before << " before the edge";
    EXPECT_EQ(low.numPages(), 1u);

    // Only the page above the edge is resident.
    SparseMemory high;
    high.write8(kEdge, 0x5a);
    EXPECT_EQ(high.read16(kEdge - 1), 0x5a00u);
    for (unsigned before = 1; before < 4; ++before)
        EXPECT_EQ(high.read32(kEdge - before), 0x5au << (8 * before))
            << before << " before the edge";
    EXPECT_EQ(high.numPages(), 1u);

    // Neither is.
    SparseMemory none;
    EXPECT_EQ(none.read16(kEdge - 1), 0u);
    EXPECT_EQ(none.read32(kEdge - 2), 0u);
    EXPECT_EQ(none.numPages(), 0u);
}

TEST(SparseMemory, WordAccessesNearPageEdgesMatchByteComposition)
{
    // Seeded reads and writes of every width at addresses within four
    // bytes of a page edge, against a byte map: each read must equal
    // the little-endian composition of the bytes written, and exactly
    // the pages written to must be resident.
    constexpr Addr kPage = SparseMemory::kPageSize;
    for (u64 seed = 1; seed <= 4; ++seed) {
        SparseMemory mem;
        std::map<Addr, u8> ref;
        std::set<Addr> pages;
        Rng rng(seed);
        for (unsigned k = 0; k < 4000; ++k) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed
                                              << " op " << k);
            const Addr edge = static_cast<Addr>(1 + rng.below(3)) * kPage;
            const Addr addr = edge - 4 + static_cast<Addr>(rng.below(8));
            const unsigned bytes = 1u << rng.below(3);
            if (rng.below(2) == 0) {
                const u32 value = rng.next32();
                mem.write(addr, value, bytes);
                for (unsigned i = 0; i < bytes; ++i) {
                    ref[addr + i] = static_cast<u8>(value >> (8 * i));
                    pages.insert((addr + i) / kPage);
                }
            } else {
                u32 expect = 0;
                for (unsigned i = 0; i < bytes; ++i) {
                    const auto it = ref.find(addr + i);
                    if (it != ref.end())
                        expect |= static_cast<u32>(it->second) << (8 * i);
                }
                ASSERT_EQ(mem.read(addr, bytes), expect)
                    << bytes << " bytes at 0x" << std::hex << addr;
            }
            ASSERT_EQ(mem.numPages(), pages.size());
        }
    }
}

TEST(SparseMemory, BlockCopyAcrossPages)
{
    SparseMemory mem;
    u8 src[16], dst[16] = {};
    for (unsigned i = 0; i < 16; ++i)
        src[i] = static_cast<u8>(0x40 + i);
    const Addr base = 3 * SparseMemory::kPageSize - 7;
    mem.writeBlock(base, src, sizeof(src));
    mem.readBlock(base, dst, sizeof(dst));
    EXPECT_EQ(std::memcmp(src, dst, sizeof(src)), 0);
}

TEST(SparseMemory, HugeAddressesStaySparse)
{
    SparseMemory mem;
    mem.write32(0x0000'0040, 1);
    mem.write32(0x7fff'fffc, 2);
    mem.write32(0xffff'f000, 3);
    EXPECT_EQ(mem.read32(0x0000'0040), 1u);
    EXPECT_EQ(mem.read32(0x7fff'fffc), 2u);
    EXPECT_EQ(mem.read32(0xffff'f000), 3u);
    // Three touched words = three pages, regardless of address span.
    EXPECT_EQ(mem.numPages(), 3u);
}

TEST(SparseMemory, SubWordWidthsAndZeroExtension)
{
    SparseMemory mem;
    mem.write(0x100, 0xdead'beef, 1);
    EXPECT_EQ(mem.read(0x100, 1), 0xefu);
    EXPECT_EQ(mem.read(0x100, 2), 0x00efu);
    mem.write(0x200, 0xdead'beef, 2);
    EXPECT_EQ(mem.read(0x200, 2), 0xbeefu);
    EXPECT_EQ(mem.read32(0x200), 0x0000'beefu);
}

TEST(SparseMemory, DeepCopyIsIndependent)
{
    SparseMemory a;
    a.write32(0x1000, 0x11111111);
    SparseMemory b(a);
    b.write32(0x1000, 0x22222222);
    b.write32(0x9000, 0x33333333);
    EXPECT_EQ(a.read32(0x1000), 0x11111111u);
    EXPECT_EQ(a.numPages(), 1u);
    EXPECT_EQ(b.read32(0x1000), 0x22222222u);
    EXPECT_EQ(b.numPages(), 2u);

    // Assignment replaces contents wholesale.
    a = b;
    EXPECT_EQ(a.read32(0x9000), 0x33333333u);
    EXPECT_EQ(a.numPages(), 2u);
}

TEST(SparseMemory, ForEachPageVisitsEveryResidentBase)
{
    SparseMemory mem;
    mem.write8(0x0000, 1);
    mem.write8(0x5000, 1);
    mem.write8(0xa0000, 1);
    std::vector<Addr> bases;
    mem.forEachPage([&](Addr b) { bases.push_back(b); });
    std::sort(bases.begin(), bases.end());
    ASSERT_EQ(bases.size(), 3u);
    EXPECT_EQ(bases[0], 0x0000u);
    EXPECT_EQ(bases[1], 0x5000u);
    EXPECT_EQ(bases[2], 0xa0000u);
}

TEST(SparseMemory, SameContentsTreatsAbsentPagesAsZero)
{
    SparseMemory a;
    SparseMemory b;
    a.write32(0x1000, 0);  // an all-zero page equals an absent one
    EXPECT_TRUE(a.sameContents(b));
    EXPECT_TRUE(b.sameContents(a));

    a.write32(0x2000, 7);
    b.write32(0x2000, 7);
    b.write32(0x9000, 0);
    EXPECT_TRUE(a.sameContents(b));

    // One differing word in either image, on a shared page or on a
    // page only that image has, makes the two unequal.
    SparseMemory c = b;
    c.write32(0x2004, 1);
    EXPECT_FALSE(a.sameContents(c));
    EXPECT_FALSE(c.sameContents(a));
    SparseMemory d = a;
    d.write32(0x5ffc, 1);
    EXPECT_FALSE(d.sameContents(b));
    EXPECT_FALSE(b.sameContents(d));
}
