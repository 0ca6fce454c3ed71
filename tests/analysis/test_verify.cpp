/**
 * diag-verify tests: the abstract domain's algebra, then one fixture
 * per verifier diagnostic kind that triggers it and one that stays
 * silent (mirroring test_lint.cpp), and the bundled workloads
 * verifying clean against their declared data maps.
 */
#include <gtest/gtest.h>

#include <string>

#include "analysis/absint.hpp"
#include "analysis/verify.hpp"
#include "asm/assembler.hpp"
#include "workloads/workload.hpp"

using namespace diag;
using namespace diag::analysis;

namespace
{

VerifyResult
verify(const std::string &src, const VerifyOptions &opt = {})
{
    return verifyProgram(assembler::assemble(src), opt);
}

Verdict
propOf(const VerifyResult &r, PropertyKind k)
{
    return r.prop(k).verdict;
}

/** Options granting the fixture a [0x100000, 0x100100) data window. */
VerifyOptions
withDataWindow()
{
    VerifyOptions opt;
    opt.extra_ranges.emplace_back(0x100000u, 0x100u);
    return opt;
}

} // namespace

// ---------------------------------------------------------------------
// The abstract domain: interval x known-bits algebra.
// ---------------------------------------------------------------------

TEST(AbsVal, ConstantsExcludeEverythingElse)
{
    const AbsVal c = AbsVal::constant(5);
    EXPECT_TRUE(c.isConst());
    EXPECT_EQ(c.constVal(), 5u);
    EXPECT_FALSE(c.excludes(5));
    EXPECT_TRUE(c.excludes(4));
    EXPECT_TRUE(c.excludes(0));
}

TEST(AbsVal, IntervalExcludesOutOfRange)
{
    const AbsVal v = AbsVal::interval(4, 10);
    EXPECT_FALSE(v.excludes(4));
    EXPECT_FALSE(v.excludes(10));
    EXPECT_TRUE(v.excludes(3));
    EXPECT_TRUE(v.excludes(11));
}

TEST(AbsVal, ArithmeticOnConstantsIsExact)
{
    EXPECT_TRUE(absAdd(AbsVal::constant(3), AbsVal::constant(4)) ==
                AbsVal::constant(7));
    EXPECT_TRUE(absSub(AbsVal::constant(10), AbsVal::constant(3)) ==
                AbsVal::constant(7));
    EXPECT_TRUE(absMul(AbsVal::constant(6), AbsVal::constant(7)) ==
                AbsVal::constant(42));
    // Modular wrap stays exact: 0xffffffff + 2 == 1 (mod 2^32).
    EXPECT_TRUE(absAdd(AbsVal::constant(0xffffffffu),
                       AbsVal::constant(2)) == AbsVal::constant(1));
}

TEST(AbsVal, AddShiftsIntervals)
{
    const AbsVal v =
        absAdd(AbsVal::interval(0, 10), AbsVal::constant(4));
    EXPECT_EQ(v.lo, 4u);
    EXPECT_EQ(v.hi, 14u);
}

TEST(AbsVal, AndWithMaskBoundsTheResult)
{
    const AbsVal v = absAnd(AbsVal::top(), AbsVal::constant(0xff));
    EXPECT_LE(v.hi, 0xffu);
    EXPECT_EQ(v.lo, 0u);
}

TEST(AbsVal, ShiftLeftKnowsLowZeroBits)
{
    // x << 3 has its low three bits provably zero: alignment facts.
    const AbsVal v = absShl(AbsVal::top(), 3);
    EXPECT_EQ(v.remainder(8), 0);
    const AbsVal u = absMul(AbsVal::constant(8), AbsVal::top());
    EXPECT_EQ(u.remainder(8), 0);
}

TEST(AbsVal, JoinKeepsCommonKnownBits)
{
    AbsVal a = AbsVal::constant(4);
    a.join(AbsVal::constant(6));
    EXPECT_EQ(a.lo, 4u);
    EXPECT_EQ(a.hi, 6u);
    // 0b100 and 0b110 agree on bit 0: both even.
    EXPECT_EQ(a.remainder(2), 0);
}

TEST(AbsVal, WideningJumpsToTheExtremes)
{
    // A growing bound must not creep one step per join: widening
    // jumps it straight to the largest value the surviving known
    // bits allow. [0,10] and [0,12] both know bits 4..31 are zero,
    // so the widened interval is [0,15], not [0,12], [0,13], ...
    AbsVal a = AbsVal::interval(0, 10);
    a.widen(AbsVal::interval(0, 12));
    EXPECT_EQ(a.hi, 15u);
    // Without agreeing high known-zero bits the jump is unbounded.
    AbsVal b = AbsVal::interval(0, 10);
    b.widen(AbsVal::interval(0, 0x80000000u));
    EXPECT_EQ(b.hi, 0xffffffffu);
}

TEST(AbsVal, MeetCanReachBottom)
{
    AbsVal a = AbsVal::constant(4);
    a.meet(AbsVal::constant(5));
    EXPECT_TRUE(a.isBottom());
    EXPECT_TRUE(a.excludes(4));
}

// ---------------------------------------------------------------------
// Divide-by-zero: trigger and silence.
// ---------------------------------------------------------------------

namespace
{

const char *kDivByZero = R"(
    _start:
        li t0, 5
        li t1, 0
        div t2, t0, t1
        ebreak
)";

const char *kDivByConst = R"(
    _start:
        li t0, 5
        li t1, 3
        div t2, t0, t1
        ebreak
)";

} // namespace

TEST(VerifyDiv, ConstantZeroDivisorIsRefuted)
{
    const VerifyResult r = verify(kDivByZero);
    EXPECT_EQ(propOf(r, PropertyKind::NoDivByZero), Verdict::Refuted);
    EXPECT_FALSE(r.clean());
    EXPECT_GT(r.report.errors(), 0u);
}

TEST(VerifyDiv, NonzeroConstantDivisorIsProven)
{
    const VerifyResult r = verify(kDivByConst);
    EXPECT_EQ(propOf(r, PropertyKind::NoDivByZero), Verdict::Proven);
    EXPECT_TRUE(r.clean());
}

// ---------------------------------------------------------------------
// Alignment: trigger and silence.
// ---------------------------------------------------------------------

namespace
{

const char *kMisalignedLoad = R"(
    _start:
        li t0, 0x100002
        lw t1, 0(t0)
        ebreak
)";

const char *kAlignedAccesses = R"(
    _start:
        li t0, 0x100000
        li t1, 7
        sw t1, 0(t0)
        lw t2, 4(t0)
        ebreak
)";

} // namespace

TEST(VerifyAlign, ConstantMisalignedWordLoadIsRefuted)
{
    const VerifyResult r = verify(kMisalignedLoad, withDataWindow());
    EXPECT_EQ(propOf(r, PropertyKind::NoMisaligned),
              Verdict::Refuted);
    EXPECT_FALSE(r.clean());
}

TEST(VerifyAlign, AlignedAccessesAreProven)
{
    const VerifyResult r = verify(kAlignedAccesses, withDataWindow());
    EXPECT_EQ(propOf(r, PropertyKind::NoMisaligned), Verdict::Proven);
    EXPECT_TRUE(r.clean());
}

// ---------------------------------------------------------------------
// Bounds against the declared data map: trigger and silence.
// ---------------------------------------------------------------------

TEST(VerifyBounds, AccessOutsideEveryChunkIsRefuted)
{
    // Same program, but no extra range declared: 0x100000 is outside
    // the program image, so the store provably leaves the data map.
    const VerifyResult r = verify(kAlignedAccesses);
    EXPECT_EQ(propOf(r, PropertyKind::NoOutOfBounds),
              Verdict::Refuted);
    EXPECT_FALSE(r.clean());
}

TEST(VerifyBounds, DeclaredRangeDischargesTheAccess)
{
    const VerifyResult r = verify(kAlignedAccesses, withDataWindow());
    EXPECT_EQ(propOf(r, PropertyKind::NoOutOfBounds),
              Verdict::Proven);
    EXPECT_TRUE(r.clean());
}

TEST(VerifyBounds, DataSectionChunkCountsAsInBounds)
{
    // A .data section emits a real chunk at the data base; accesses
    // into it verify in-bounds with no extra declaration.
    const VerifyResult r = verify(R"(
        .data
        .space 64
        .text
    _start:
        li t0, 0x100000
        sw zero, 0(t0)
        ebreak
)");
    EXPECT_EQ(propOf(r, PropertyKind::NoOutOfBounds),
              Verdict::Proven);
}

// ---------------------------------------------------------------------
// Cross-thread races in simt regions: proven, refuted, carried.
// ---------------------------------------------------------------------

namespace
{

/** Disjoint per-thread slots: thread i owns [base+8i, base+8i+8). */
const char *kDisjointRegion = R"(
    _start:
        li s2, 0x100000
        li a2, 0
        li a3, 8
        li a4, 64
    head:
        simt_s a2, a3, a4, 1
        add t5, s2, a2
        li t6, 7
        sw t6, 0(t5)
        lw t4, 0(t5)
        sw t4, 4(t5)
        simt_e a2, a4, head
        ebreak
)";

/** Thread i loads the cell thread i+1 stores: a definite RAW race. */
const char *kNextSliceRace = R"(
    _start:
        li s2, 0x100000
        li a2, 0
        li a3, 8
        li a4, 64
    head:
        simt_s a2, a3, a4, 1
        add t5, s2, a2
        li t6, 7
        sw t6, 0(t5)
        addi t4, a2, 8
        add t4, t4, s2
        lw t3, 0(t4)
        simt_e a2, a4, head
        ebreak
)";

/** Every thread reads and writes one fixed address. */
const char *kCarriedRace = R"(
    _start:
        li s2, 0x100000
        li a2, 0
        li a3, 4
        li a4, 64
    head:
        simt_s a2, a3, a4, 1
        lw t0, 0(s2)
        addi t0, t0, 1
        sw t0, 0(s2)
        simt_e a2, a4, head
        ebreak
)";

} // namespace

TEST(VerifyRace, DisjointSlotsAreProvenRaceFree)
{
    const VerifyResult r = verify(kDisjointRegion, withDataWindow());
    ASSERT_EQ(r.regions.size(), 1u);
    EXPECT_EQ(r.regions[0].race, Verdict::Proven);
    EXPECT_TRUE(r.clean());
}

TEST(VerifyRace, NextSliceLoadIsRefuted)
{
    const VerifyResult r = verify(kNextSliceRace, withDataWindow());
    ASSERT_EQ(r.regions.size(), 1u);
    EXPECT_EQ(r.regions[0].race, Verdict::Refuted);
    EXPECT_FALSE(r.clean());
}

TEST(VerifyRace, CarriedFixedAddressRaceIsRefuted)
{
    const VerifyResult r = verify(kCarriedRace, withDataWindow());
    ASSERT_EQ(r.regions.size(), 1u);
    EXPECT_EQ(r.regions[0].race, Verdict::Refuted);
    EXPECT_FALSE(r.clean());
}

TEST(VerifyRace, ScaledSeedTermResolvesThroughEntryState)
{
    // 4*s2 is a scaled seed term; s2 is 0x40000 at simt_s, so the
    // store slots [0x100000, 0x10003c] resolve to absolute addresses
    // and miss the fixed cell every thread loads.
    const VerifyResult r = verify(R"(
    _start:
        li s2, 0x40000
        li a2, 0
        li a3, 8
        li a4, 64
    head:
        simt_s a2, a3, a4, 1
        slli t5, s2, 2
        add t5, t5, a2
        li t6, 7
        sw t6, 0(t5)
        li t3, 0x100000
        lw t4, 128(t3)
        simt_e a2, a4, head
        ebreak
)",
                                  withDataWindow());
    ASSERT_EQ(r.regions.size(), 1u);
    EXPECT_EQ(r.regions[0].race, Verdict::Proven);
}

TEST(VerifyRace, OneTermAtTwoScalesIsIncomparable)
{
    // s2 is unknown at simt_s: the store through 4*s2 and the load
    // through s2 share a term but not a scale, so no pair verdict.
    const VerifyResult r = verify(R"(
    _start:
        li s0, 0x100000
        lw s2, 0(s0)
        li a2, 0
        li a3, 8
        li a4, 64
    head:
        simt_s a2, a3, a4, 1
        slli t5, s2, 2
        add t5, t5, a2
        li t6, 7
        sw t6, 0(t5)
        lw t4, 0(s2)
        simt_e a2, a4, head
        ebreak
)",
                                  withDataWindow());
    ASSERT_EQ(r.regions.size(), 1u);
    EXPECT_EQ(r.regions[0].race, Verdict::Unknown);
}

// ---------------------------------------------------------------------
// Deadlock freedom / token conservation: proven count and livelock.
// ---------------------------------------------------------------------

TEST(VerifyDeadlock, ResolvedRegionProvesItsThreadCount)
{
    const VerifyResult r = verify(kDisjointRegion, withDataWindow());
    ASSERT_EQ(r.regions.size(), 1u);
    EXPECT_EQ(r.regions[0].deadlock, Verdict::Proven);
    EXPECT_EQ(r.regions[0].threads, 8u);  // 64 / 8
    EXPECT_GT(r.regions[0].capacity, 0u);
    EXPECT_LE(r.regions[0].inflight_bound, r.regions[0].capacity);
}

TEST(VerifyDeadlock, ZeroStepLivelockIsRefuted)
{
    const VerifyResult r = verify(R"(
    _start:
        li s2, 0x100000
        li a2, 0
        li a3, 0
        li a4, 64
    head:
        simt_s a2, a3, a4, 1
        add t5, s2, a2
        sw zero, 0(t5)
        simt_e a2, a4, head
        ebreak
)",
                                  withDataWindow());
    ASSERT_EQ(r.regions.size(), 1u);
    EXPECT_EQ(r.regions[0].deadlock, Verdict::Refuted);
    EXPECT_FALSE(r.clean());
}

// ---------------------------------------------------------------------
// Renderers carry the verdicts.
// ---------------------------------------------------------------------

TEST(VerifyRender, TextAndJsonNameEveryProperty)
{
    const VerifyResult r = verify(kDivByZero);
    const std::string text = renderVerifyText(r);
    const std::string json = renderVerifyJson(r);
    for (const char *name :
         {"control-safe", "no-div-by-zero", "no-misaligned",
          "no-out-of-bounds"}) {
        EXPECT_NE(text.find(name), std::string::npos) << name;
        EXPECT_NE(json.find(name), std::string::npos) << name;
    }
    EXPECT_NE(text.find("refuted"), std::string::npos);
}

// ---------------------------------------------------------------------
// Every bundled workload verifies clean against its declared data map.
// ---------------------------------------------------------------------

namespace
{

void
expectWorkloadClean(const workloads::Workload &w)
{
    VerifyOptions opt;
    opt.lint = LintOptions::abiEntry();
    opt.extra_ranges = w.data_ranges;
    for (const std::string *src : {&w.asm_serial, &w.asm_simt}) {
        if (src->empty())
            continue;
        const VerifyResult r = verifyProgram(
            assembler::assemble(*src), opt);
        EXPECT_TRUE(r.clean())
            << w.name << (src == &w.asm_serial ? " (serial)"
                                               : " (simt)")
            << ":\n"
            << renderVerifyText(r);
    }
}

} // namespace

TEST(VerifyWorkloads, RodiniaSuiteVerifiesClean)
{
    for (const auto &w : workloads::rodiniaSuite())
        expectWorkloadClean(w);
}

TEST(VerifyWorkloads, SpecSuiteVerifiesClean)
{
    for (const auto &w : workloads::specSuite())
        expectWorkloadClean(w);
}
