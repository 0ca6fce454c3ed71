/** OoO core behaviour tests: correctness vs golden, ILP extraction,
 *  branch-misprediction cost, width sensitivity. */
#include <gtest/gtest.h>

#include <sstream>

#include "asm/assembler.hpp"
#include "ooo/processor.hpp"
#include "sim/fuzz.hpp"
#include "sim/golden.hpp"

using namespace diag;
using namespace diag::isa;
using namespace diag::ooo;

namespace
{

Program
asmProgram(const std::string &src)
{
    return assembler::assemble(src);
}

} // namespace

TEST(OooCore, SumLoopMatchesGolden)
{
    const Program p = asmProgram(R"(
        _start:
            li a0, 0
            li a1, 1
            li a2, 101
        loop:
            add a0, a0, a1
            addi a1, a1, 1
            bne a1, a2, loop
            ebreak
    )");
    OooProcessor proc(OooConfig::baseline8());
    const sim::RunStats rs = proc.run(p);
    EXPECT_TRUE(rs.halted);
    EXPECT_EQ(proc.finalReg(0, 10), 5050u);
    EXPECT_GT(rs.ipc(), 0.5);
}

TEST(OooCore, IlpKernelReachesHighIpc)
{
    // 24 independent chains incremented in a loop (warm I-cache and
    // predictor): an 8-wide OoO should sustain well over 3 IPC.
    std::string src = "_start:\n    li x31, 512\nloop:\n";
    for (int r = 5; r < 29; ++r)
        src += "    addi x" + std::to_string(r) + ", x" +
               std::to_string(r) + ", 1\n";
    src += "    addi x31, x31, -1\n    bnez x31, loop\n    ebreak\n";
    OooProcessor proc(OooConfig::baseline8());
    const sim::RunStats rs = proc.run(asmProgram(src));
    EXPECT_TRUE(rs.halted);
    EXPECT_GT(rs.ipc(), 3.0);
}

TEST(OooCore, DependentChainLimitsIpc)
{
    std::string src = "_start:\n";
    for (int i = 0; i < 1024; ++i)
        src += "    addi x5, x5, 1\n";
    src += "    ebreak\n";
    OooProcessor proc(OooConfig::baseline8());
    const sim::RunStats rs = proc.run(asmProgram(src));
    EXPECT_TRUE(rs.halted);
    EXPECT_LT(rs.ipc(), 1.3);  // serial dependence: ~1 IPC
}

TEST(OooCore, MispredictionCostsCycles)
{
    // A data-dependent unpredictable branch pattern versus an
    // always-taken one: the unpredictable version must be slower.
    const char *unpredictable = R"(
        _start:
            li t0, 0
            li t1, 2048
            li t2, 0
            li t3, 1103515245
            li t4, 0x10001
        loop:
            mul t4, t4, t3
            addi t4, t4, 1013
            srli t5, t4, 16
            andi t5, t5, 1
            beqz t5, skip
            addi t2, t2, 1
        skip:
            addi t0, t0, 1
            bne t0, t1, loop
            ebreak
    )";
    const char *predictable = R"(
        _start:
            li t0, 0
            li t1, 2048
            li t2, 0
            li t3, 1103515245
            li t4, 0x10001
        loop:
            mul t4, t4, t3
            addi t4, t4, 1013
            srli t5, t4, 16
            andi t5, t5, 0      # always zero -> branch always taken
            beqz t5, skip
            addi t2, t2, 1
        skip:
            addi t0, t0, 1
            bne t0, t1, loop
            ebreak
    )";
    OooProcessor a(OooConfig::baseline8());
    const sim::RunStats ra = a.run(asmProgram(unpredictable));
    OooProcessor b(OooConfig::baseline8());
    const sim::RunStats rb = b.run(asmProgram(predictable));
    EXPECT_GT(ra.counters.get("mispredicts"),
              rb.counters.get("mispredicts") + 100);
    EXPECT_GT(ra.cycles, rb.cycles);
}

TEST(OooCore, CallsUseRasWell)
{
    const Program p = asmProgram(R"(
        _start:
            li s0, 0
            li s1, 200
        loop:
            call bump
            bne s0, s1, loop
            ebreak
        bump:
            addi s0, s0, 1
            ret
    )");
    OooProcessor proc(OooConfig::baseline8());
    const sim::RunStats rs = proc.run(p);
    EXPECT_TRUE(rs.halted);
    EXPECT_EQ(proc.finalReg(0, 8), 200u);
    // Returns should be predicted by the RAS: few mispredicts.
    EXPECT_LT(rs.counters.get("mispredicts"), 30.0);
}

TEST(OooCore, MemoryKernelMatchesGolden)
{
    const Program p = asmProgram(R"(
        .data
        buf: .space 1024
        .text
        _start:
            la t0, buf
            li t1, 0
            li t2, 256
        fill:
            slli t3, t1, 2
            add t4, t0, t3
            sw t1, 0(t4)
            addi t1, t1, 1
            bne t1, t2, fill
            li t1, 0
            li a0, 0
        sum:
            slli t3, t1, 2
            add t4, t0, t3
            lw t5, 0(t4)
            add a0, a0, t5
            addi t1, t1, 1
            bne t1, t2, sum
            ebreak
    )");
    sim::GoldenSim gold(p);
    gold.run();
    OooProcessor proc(OooConfig::baseline8());
    const sim::RunStats rs = proc.run(p);
    EXPECT_TRUE(rs.halted);
    EXPECT_EQ(proc.finalReg(0, 10), gold.reg(10));
    EXPECT_EQ(gold.reg(10), 255u * 256 / 2);
}

TEST(OooCore, MulticoreRunsDisjointThreads)
{
    const Program p = asmProgram(R"(
        .data
        out: .space 64
        .text
        _start:
            # a0 = thread id
            li t0, 0
            li t1, 10000
        loop:
            addi t0, t0, 1
            bne t0, t1, loop
            la t2, out
            slli t3, a0, 2
            add t2, t2, t3
            sw t0, 0(t2)
            ebreak
    )");
    OooProcessor proc(OooConfig::multicore12());
    std::vector<ThreadSpec> threads;
    for (u32 t = 0; t < 12; ++t)
        threads.push_back({p.entry, {{RegId{10}, t}}});
    const sim::RunStats rs = proc.runThreads(p, threads);
    EXPECT_TRUE(rs.halted);
    for (u32 t = 0; t < 12; ++t)
        EXPECT_EQ(proc.memory().read32(p.symbol("out") + 4 * t),
                  10000u);
    // Threads run on parallel cores: total time must be far below the
    // serialized sum.
    EXPECT_LT(rs.cycles, 12u * 10000u);
}

class OooDiff : public ::testing::TestWithParam<u64>
{};

TEST_P(OooDiff, RandomProgramsMatchGolden)
{
    const u64 seed = GetParam();
    sim::FuzzOptions opt;
    opt.seed = seed;
    opt.use_fp = (seed % 3) == 0;
    const std::string src = sim::generateFuzzProgram(opt);
    const Program p = assembler::assemble(src);

    sim::GoldenSim gold(p);
    const sim::RunResult gr = gold.run(2'000'000);
    ASSERT_TRUE(gr.halted);

    OooProcessor proc(OooConfig::baseline8());
    const sim::RunStats rs = proc.run(p);
    ASSERT_TRUE(rs.halted) << "seed " << seed;
    ASSERT_EQ(rs.instructions, gr.inst_count) << "seed " << seed;
    for (unsigned r = 1; r < kNumRegs; ++r)
        ASSERT_EQ(proc.finalReg(0, static_cast<RegId>(r)), gold.reg(r))
            << "seed " << seed << " register " << r;
    const Addr buf = p.symbol("buf");
    for (Addr off = 0; off < 1024; off += 4)
        ASSERT_EQ(proc.memory().read32(buf + off),
                  gold.memory().read32(buf + off))
            << "seed " << seed << " buf+" << off;
}

INSTANTIATE_TEST_SUITE_P(Seeds, OooDiff, ::testing::Range<u64>(300, 325));

// --- Per-run isolation regressions (same contract as DiAG's). ------

namespace
{

std::string
countersJson(const sim::RunStats &rs)
{
    std::ostringstream os;
    rs.counters.dumpJson(os);
    return os.str();
}

} // namespace

TEST(OooCore, RunningDifferentProgramReloadsMemory)
{
    const Program a = asmProgram(R"(
        _start:
            li a0, 111
            ebreak
    )");
    const Program b = asmProgram(R"(
        _start:
            li a0, 222
            ebreak
    )");
    OooProcessor proc(OooConfig::baseline8());
    ASSERT_TRUE(proc.run(a).halted);
    EXPECT_EQ(proc.finalReg(0, 10), 111u);
    ASSERT_TRUE(proc.run(b).halted);
    EXPECT_EQ(proc.finalReg(0, 10), 222u);

    // A program that stores and loads raises data-side counters B never
    // touches; B's report must match a fresh processor's, listing none
    // of them, not even as zeros.
    const Program mem_a = asmProgram(R"(
        _start:
            li t0, 0x400
            li t1, 7
            sw t1, 0(t0)
            lw a0, 0(t0)
            ebreak
    )");
    OooProcessor fresh(OooConfig::baseline8());
    const sim::RunStats rf = fresh.run(b);
    OooProcessor after_mem(OooConfig::baseline8());
    ASSERT_TRUE(after_mem.run(mem_a).halted);
    const sim::RunStats rm = after_mem.run(b);
    EXPECT_EQ(rm.cycles, rf.cycles);
    EXPECT_EQ(countersJson(rm), countersJson(rf));
}

TEST(OooCore, RunTwiceEqualsRunOnce)
{
    // Per-run counter deltas: a reused processor's second run must
    // match a fresh processor's first run exactly — caches, FU busy
    // calendars, and counters all reset between runs.
    const Program p = asmProgram(R"(
        _start:
            li a0, 0
            li a1, 64
        loop:
            slli t0, a0, 2
            sw a0, 0x400(t0)
            addi a0, a0, 1
            bne a0, a1, loop
            ebreak
    )");
    OooProcessor fresh(OooConfig::baseline8());
    const sim::RunStats first = fresh.run(p);

    OooProcessor reused(OooConfig::baseline8());
    const sim::RunStats r1 = reused.run(p);
    const sim::RunStats r2 = reused.run(p);
    EXPECT_EQ(countersJson(r1), countersJson(first));
    EXPECT_EQ(r2.cycles, first.cycles);
    EXPECT_EQ(r2.instructions, first.instructions);
    EXPECT_EQ(countersJson(r2), countersJson(first));
}

TEST(OooCore, RerunAfterWarmCachesStaysWarm)
{
    // loadProgram + warmCaches + two runs: the second run re-warms to
    // the same post-warm state, so both runs are identical, and both
    // beat a cold run of the same program.
    const Program p = asmProgram(R"(
        _start:
            li a0, 0
            li a1, 32
            li a2, 0
        loop:
            slli t0, a0, 2
            lw t1, 0x400(t0)
            add a2, a2, t1
            addi a0, a0, 1
            bne a0, a1, loop
            ebreak
    )");
    OooProcessor cold(OooConfig::baseline8());
    const sim::RunStats rc = cold.run(p);
    OooProcessor proc(OooConfig::baseline8());
    proc.loadProgram(p);
    proc.warmCaches();
    const sim::RunStats r1 = proc.run(p);
    const sim::RunStats r2 = proc.run(p);
    EXPECT_LT(r1.cycles, rc.cycles);
    EXPECT_EQ(r2.cycles, r1.cycles);
    EXPECT_EQ(countersJson(r2), countersJson(r1));
}
