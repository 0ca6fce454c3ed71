/** SparseMemory edge cases: page-straddling accesses, zero-fill
 *  read-before-write, huge-address sparsity, and deep-copy isolation
 *  (the fault campaign's checkpoint/compare paths lean on all four). */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

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
