/** Watchdog tests: the cycle ceiling and stagnation tripwires, and
 *  the stop contract both engines share — a livelock, a spent
 *  instruction budget, a misaligned pc and an invalid encoding each
 *  come back from DiAG and from the OoO baseline as the same
 *  structured stop (flags, exact reason, retired count), not a hang or
 *  a crash. */
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "diag/processor.hpp"
#include "fault/watchdog.hpp"
#include "ooo/processor.hpp"

using namespace diag;
using namespace diag::fault;

TEST(Watchdog, CycleCeiling)
{
    Watchdog wd(1000);
    EXPECT_FALSE(wd.onCycle(999));
    EXPECT_FALSE(wd.onCycle(1000));
    EXPECT_TRUE(wd.onCycle(1001));
    EXPECT_NE(wd.reason().find("cycle ceiling"), std::string::npos);
}

TEST(Watchdog, ZeroCeilingDisablesCycleCheck)
{
    Watchdog wd(0);
    EXPECT_FALSE(wd.onCycle(~u64{0}));
}

TEST(Watchdog, StagnationFiresAfterLimit)
{
    // The first observation baselines the counter; the limit counts
    // *stalled* boundaries after it.
    Watchdog wd(0, /*stall_limit=*/16);
    for (int i = 0; i < 16; ++i)
        EXPECT_FALSE(wd.onProgress(42));
    EXPECT_TRUE(wd.onProgress(42));
    EXPECT_NE(wd.reason().find("no forward progress"),
              std::string::npos);
}

TEST(Watchdog, ProgressResetsStagnation)
{
    Watchdog wd(0, /*stall_limit=*/4);
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(wd.onProgress(7));
    EXPECT_FALSE(wd.onProgress(8));  // advanced: counter resets
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(wd.onProgress(8));
    EXPECT_TRUE(wd.onProgress(8));
}

namespace
{

/** A livelock: the thread never retires its way out. */
const char *const kSpin = R"(
    _start:
    spin:
        jal x0, spin
)";

/** Retires forever, so only the instruction budget stops it. */
const char *const kCountForever = R"(
    _start:
        li a0, 0
    spin:
        addi a0, a0, 1
        jal x0, spin
)";

/** jalr clears only bit 0 of its target: 0x1006 stays misaligned. */
const char *const kMisaligned = R"(
    _start:
        li t0, 0x1006
        jalr x0, 0(t0)
)";

/** No ebreak: execution falls into un-emitted memory, which reads as
 *  zero and decodes as an invalid instruction. */
const char *const kFallOffTheEnd = R"(
    _start:
        li t0, 1
        addi t0, t0, 1
)";

/** How a run is expected to stop. */
struct Expected
{
    bool timed_out;
    bool faulted;
    const char *reason;
    u64 instructions;
};

void
expectStop(const sim::RunStats &rs, const Expected &want)
{
    EXPECT_FALSE(rs.halted);
    EXPECT_EQ(rs.timed_out, want.timed_out);
    EXPECT_EQ(rs.faulted, want.faulted);
    EXPECT_FALSE(rs.aborted);
    EXPECT_FALSE(rs.hostStopped());
    EXPECT_EQ(rs.stop_reason, want.reason);
    EXPECT_EQ(rs.instructions, want.instructions);
}

/** @p src on F4C2 with the strict lint off, which would reject a
 *  program that falls off its image before it runs. */
sim::RunStats
runDiag(const char *src, u64 max_cycles, u64 max_insts = 500'000'000)
{
    core::DiagConfig cfg = core::DiagConfig::f4c2();
    cfg.lint_enabled = false;
    cfg.max_cycles = max_cycles;
    core::DiagProcessor proc(cfg);
    return proc.run(assembler::assemble(src), max_insts);
}

/** @p src on the 1-core OoO baseline. */
sim::RunStats
runOoo(const char *src, u64 max_cycles, u64 max_insts = 500'000'000)
{
    ooo::OooConfig cfg = ooo::OooConfig::baseline8();
    cfg.max_cycles = max_cycles;
    ooo::OooProcessor proc(cfg);
    return proc.run(assembler::assemble(src), max_insts);
}

} // namespace

TEST(Watchdog, DiagLivelockBecomesStructuredTimeout)
{
    expectStop(runDiag(kSpin, 20'000),
               {true, false,
                "thread 0: watchdog: cycle ceiling exceeded (20001 > "
                "max_cycles 20000)",
                9'928});
}

TEST(Watchdog, OooLivelockBecomesStructuredTimeout)
{
    expectStop(runOoo(kSpin, 20'000),
               {true, false,
                "thread 0: watchdog: cycle ceiling exceeded (20001 > "
                "max_cycles 20000)",
                19'849});
}

TEST(Watchdog, InstructionBudgetIsAlsoStructured)
{
    // Exhausting max_insts (not max_cycles) must report the same
    // structured shape rather than a silent non-halt. DiAG retires
    // whole activations, so its last one may carry it past the budget.
    expectStop(runDiag(kCountForever, 0, 5'000),
               {true, false,
                "thread 0: instruction budget exhausted (5001 retired)",
                5'001});
    expectStop(runOoo(kCountForever, 0, 5'000),
               {true, false,
                "thread 0: instruction budget exhausted (5000 retired)",
                5'000});
}

TEST(Watchdog, MisalignedPcTrapsOnBothEngines)
{
    expectStop(runDiag(kMisaligned, 20'000),
               {false, true, "thread 0: trap: misaligned pc 0x1006", 3});
    expectStop(runOoo(kMisaligned, 20'000),
               {false, true, "thread 0: trap: misaligned pc 0x1006", 3});
}

TEST(Watchdog, InvalidEncodingTrapsOnBothEngines)
{
    expectStop(runDiag(kFallOffTheEnd, 20'000),
               {false, true,
                "thread 0: trap: invalid encoding at pc 0x1008", 2});
    expectStop(runOoo(kFallOffTheEnd, 20'000),
               {false, true,
                "thread 0: trap: invalid encoding at pc 0x1008", 2});
}
