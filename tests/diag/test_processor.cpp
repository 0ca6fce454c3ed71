/** End-to-end DiAG processor tests: serial programs, datapath reuse,
 *  SIMT thread pipelining, multi-threaded rings. */
#include <gtest/gtest.h>

#include <sstream>

#include "asm/assembler.hpp"
#include "diag/processor.hpp"
#include "sim/golden.hpp"

using namespace diag;
using namespace diag::core;
using namespace diag::isa;

namespace
{

Program
asmProgram(const std::string &src)
{
    return assembler::assemble(src);
}

} // namespace

TEST(DiagProcessor, SumLoopMatchesGolden)
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
    DiagProcessor proc(DiagConfig::f4c2());
    const sim::RunStats rs = proc.run(p);
    EXPECT_TRUE(rs.halted);
    EXPECT_EQ(proc.finalReg(0, 10), 5050u);
    EXPECT_GT(rs.cycles, 0u);
    EXPECT_GT(rs.instructions, 300u);
}

TEST(DiagProcessor, LoopReusesDatapath)
{
    const Program p = asmProgram(R"(
        _start:
            li a0, 0
            li a1, 100
        loop:
            addi a0, a0, 1
            bne a0, a1, loop
            ebreak
    )");
    DiagProcessor proc(DiagConfig::f4c2());
    const sim::RunStats rs = proc.run(p);
    EXPECT_TRUE(rs.halted);
    // ~99 backward branches re-activate an already-loaded cluster.
    EXPECT_GT(rs.counters.get("reuse_activations"), 90.0);
    // Decodes stay bounded: the loop line is decoded once, not 100x.
    EXPECT_LT(rs.counters.get("decodes"), 100.0);
}

TEST(DiagProcessor, ReuseEliminatesFetches)
{
    // Table 1's "DiAG (Reuse)" row: steady-state loop iterations cost
    // no fetch and no decode.
    const Program p = asmProgram(R"(
        _start:
            li a0, 0
            li a1, 1000
        loop:
            addi a0, a0, 1
            bne a0, a1, loop
            ebreak
    )");
    DiagProcessor proc(DiagConfig::f4c32());
    const sim::RunStats rs = proc.run(p);
    const double fetches = rs.counters.get("iline_fetches");
    const double activations = rs.counters.get("activations");
    EXPECT_LT(fetches, 10.0);
    EXPECT_GT(activations, 990.0);
}

TEST(DiagProcessor, MultiClusterProgram)
{
    // A program body longer than one cluster (16 instructions) flows
    // across clusters through the lane latches.
    std::string src = "_start:\n    li a0, 0\n";
    for (int i = 0; i < 40; ++i)
        src += "    addi a0, a0, 1\n";
    src += "    ebreak\n";
    const Program p = asmProgram(src);
    DiagProcessor proc(DiagConfig::f4c16());
    const sim::RunStats rs = proc.run(p);
    EXPECT_TRUE(rs.halted);
    EXPECT_EQ(proc.finalReg(0, 10), 40u);
}

TEST(DiagProcessor, MemoryKernelMatchesGolden)
{
    const std::string src = R"(
        .data
        a: .space 256
        b: .space 256
        .text
        _start:
            la t0, a
            la t1, b
            li t2, 0
            li t3, 64
        init:
            slli t4, t2, 2
            add t5, t0, t4
            sw t2, 0(t5)
            addi t2, t2, 1
            bne t2, t3, init
            li t2, 0
        copy:
            slli t4, t2, 2
            add t5, t0, t4
            lw t6, 0(t5)
            slli t6, t6, 1
            add t5, t1, t4
            sw t6, 0(t5)
            addi t2, t2, 1
            bne t2, t3, copy
            la t0, b
            lw a0, 252(t0)
            ebreak
    )";
    const Program p = asmProgram(src);

    sim::GoldenSim gold(p);
    gold.run();

    DiagProcessor proc(DiagConfig::f4c16());
    const sim::RunStats rs = proc.run(p);
    EXPECT_TRUE(rs.halted);
    EXPECT_EQ(proc.finalReg(0, 10), gold.reg(10));
    EXPECT_EQ(proc.finalReg(0, 10), 126u);  // 2 * 63
    // Memory contents match.
    for (Addr off = 0; off < 256; off += 4) {
        const Addr addr = p.symbol("b") + off;
        EXPECT_EQ(proc.memory().read32(addr), gold.memory().read32(addr));
    }
}

TEST(DiagProcessor, MorePesHelpIlp)
{
    // A wide independent-operation kernel should not run slower with
    // more clusters (more PEs => more in-flight instructions).
    std::string src = "_start:\n";
    for (int rep = 0; rep < 8; ++rep) {
        for (int r = 5; r < 29; ++r)
            src += "    addi x" + std::to_string(r) + ", x" +
                   std::to_string(r) + ", 1\n";
    }
    src += "    ebreak\n";
    const Program p = asmProgram(src);

    DiagProcessor small(DiagConfig::f4c2());
    const sim::RunStats rs_small = small.run(p);
    DiagProcessor large(DiagConfig::f4c32());
    const sim::RunStats rs_large = large.run(p);
    EXPECT_TRUE(rs_small.halted);
    EXPECT_TRUE(rs_large.halted);
    EXPECT_LE(rs_large.cycles, rs_small.cycles);
}

TEST(DiagProcessor, SimtPipelineMatchesGoldenAndSpeedsUp)
{
    // Vector scale: out[i] = 3 * in[i] over 64 elements, expressed as
    // a simt region (rc = byte offset, step = 4, end = 256).
    const std::string src = R"(
        .data
        vin: .space 256
        vout: .space 256
        .text
        _start:
            # initialize vin[i] = i
            la t0, vin
            li t1, 0
            li t2, 64
        init:
            slli t3, t1, 2
            add t4, t0, t3
            sw t1, 0(t4)
            addi t1, t1, 1
            bne t1, t2, init
            # simt region
            la s2, vin
            la s3, vout
            li a0, 0        # rc: byte offset
            li a1, 4        # step
            li a2, 256      # end
        head:
            simt_s a0, a1, a2, 1
            add t5, s2, a0
            lw t6, 0(t5)
            slli t6, t6, 1
            add t6, t6, a0  # 2*i + byte_off... make it data-dependent
            add s4, s3, a0
            sw t6, 0(s4)
            simt_e a0, a2, head
            la t0, vout
            lw a0, 252(t0)
            ebreak
    )";
    const Program p = asmProgram(src);

    sim::GoldenSim gold(p);
    const sim::RunResult gr = gold.run();
    EXPECT_TRUE(gr.halted);

    DiagConfig simt_cfg = DiagConfig::f4c32();
    DiagProcessor with_simt(simt_cfg);
    const sim::RunStats rs_simt = with_simt.run(p);
    EXPECT_TRUE(rs_simt.halted);
    EXPECT_GT(rs_simt.counters.get("simt_regions"), 0.0);
    EXPECT_EQ(rs_simt.counters.get("simt_threads"), 64.0);
    EXPECT_EQ(with_simt.finalReg(0, 10), gold.reg(10));
    for (Addr off = 0; off < 256; off += 4) {
        const Addr addr = p.symbol("vout") + off;
        EXPECT_EQ(with_simt.memory().read32(addr),
                  gold.memory().read32(addr))
            << "vout offset " << off;
    }

    DiagConfig no_simt = DiagConfig::f4c32();
    no_simt.simt_enabled = false;
    DiagProcessor without(no_simt);
    const sim::RunStats rs_plain = without.run(p);
    EXPECT_TRUE(rs_plain.halted);
    EXPECT_EQ(without.finalReg(0, 10), gold.reg(10));
    // Thread pipelining must beat scalar loop execution.
    EXPECT_LT(rs_simt.cycles, rs_plain.cycles);
}

TEST(DiagProcessor, SimtRegionTooBigFallsBack)
{
    // A region with a backward branch inside cannot pipeline; the
    // processor must still produce correct results via scalar fallback.
    const std::string src = R"(
        _start:
            li a0, 0
            li a1, 1
            li a2, 4
            li s0, 0
        head:
            simt_s a0, a1, a2, 1
            li t0, 3
        inner:
            addi s0, s0, 1
            addi t0, t0, -1
            bnez t0, inner
            simt_e a0, a2, head
            ebreak
    )";
    const Program p = asmProgram(src);
    sim::GoldenSim gold(p);
    gold.run();

    DiagProcessor proc(DiagConfig::f4c32());
    const sim::RunStats rs = proc.run(p);
    EXPECT_TRUE(rs.halted);
    EXPECT_GT(rs.counters.get("simt_fallbacks"), 0.0);
    EXPECT_EQ(rs.counters.get("simt_regions"), 0.0);
    EXPECT_EQ(proc.finalReg(0, 8), gold.reg(8));  // s0 == 12
    EXPECT_EQ(gold.reg(8), 12u);
}

TEST(DiagProcessor, MultiThreadedRings)
{
    // Two threads sum disjoint halves of an array on separate rings.
    const std::string src = R"(
        .data
        arr: .space 512
        out: .space 8
        .text
        _start:
            # a0 = thread id (set via init_regs)
            la t0, arr
            li t1, 64          # elements per thread
            mul t2, a0, t1
            slli t2, t2, 2
            add t0, t0, t2     # base of my half
            li t3, 0           # sum
            li t4, 0
        loop:
            lw t5, 0(t0)
            add t3, t3, t5
            addi t0, t0, 4
            addi t4, t4, 1
            bne t4, t1, loop
            la t6, out
            slli t2, a0, 2
            add t6, t6, t2
            sw t3, 0(t6)
            ebreak
    )";
    const Program p = asmProgram(src);

    DiagProcessor proc(DiagConfig::f4c32MultiRing());
    proc.loadProgram(p);
    // arr[i] = i
    for (u32 i = 0; i < 128; ++i)
        proc.memory().write32(p.symbol("arr") + 4 * i, i);
    std::vector<ThreadSpec> threads;
    for (u32 t = 0; t < 2; ++t)
        threads.push_back({p.entry, {{RegId{10}, t}}});
    const sim::RunStats rs = proc.runThreads(p, threads);
    EXPECT_TRUE(rs.halted);
    const u32 sum0 = proc.memory().read32(p.symbol("out"));
    const u32 sum1 = proc.memory().read32(p.symbol("out") + 4);
    EXPECT_EQ(sum0, 63u * 64 / 2);
    EXPECT_EQ(sum1, (64u + 127u) * 64 / 2);
    EXPECT_EQ(rs.counters.get("threads"), 2.0);
}

TEST(DiagProcessor, IntegerOnlyConfigRunsIntCode)
{
    const Program p = asmProgram(R"(
        _start:
            li a0, 21
            slli a0, a0, 1
            ebreak
    )");
    DiagProcessor proc(DiagConfig::i4c2());
    const sim::RunStats rs = proc.run(p);
    EXPECT_TRUE(rs.halted);
    EXPECT_EQ(proc.finalReg(0, 10), 42u);
}

TEST(DiagProcessor, StallCountersPopulated)
{
    // A pointer-chase over a large footprint produces memory stalls.
    const std::string src = R"(
        .data
        arr: .space 65536
        .text
        _start:
            la t0, arr
            li t1, 0
            li t2, 1024
        loop:
            slli t3, t1, 6      # stride 64B: every load a new line
            add t4, t0, t3
            lw t5, 0(t4)
            add t6, t6, t5
            addi t1, t1, 1
            bne t1, t2, loop
            ebreak
    )";
    const Program p = asmProgram(src);
    DiagProcessor proc(DiagConfig::f4c32());
    const sim::RunStats rs = proc.run(p);
    EXPECT_TRUE(rs.halted);
    EXPECT_GT(rs.counters.get("mem_stall_cycles"), 0.0);
    EXPECT_GT(rs.counters.get("ctrl_stall_cycles"), 0.0);
    EXPECT_GT(rs.counters.get("dram_loads"), 500.0);
}

// --- Per-run isolation regressions (DESIGN.md §15). ----------------

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

TEST(DiagProcessor, RunningDifferentProgramReloadsMemory)
{
    // A processor that already ran program A must not execute A's
    // stale image when handed program B (the old `if
    // (!program_loaded_)` guard skipped the reload entirely).
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
    DiagProcessor proc(DiagConfig::f4c2());
    ASSERT_TRUE(proc.run(a).halted);
    EXPECT_EQ(proc.finalReg(0, 10), 111u);
    ASSERT_TRUE(proc.run(b).halted);
    EXPECT_EQ(proc.finalReg(0, 10), 222u);

    // A fresh processor running only B is the reference; the reloaded
    // processor must report the very same cycles and counters.
    DiagProcessor fresh(DiagConfig::f4c2());
    const sim::RunStats rf = fresh.run(b);
    DiagProcessor twice(DiagConfig::f4c2());
    ASSERT_TRUE(twice.run(a).halted);
    const sim::RunStats rs = twice.run(b);
    EXPECT_EQ(rs.cycles, rf.cycles);
    EXPECT_EQ(countersJson(rs), countersJson(rf));

    // A program that stores and loads raises data-side counters B never
    // touches; B's report must not list them, not even as zeros.
    const Program mem_a = asmProgram(R"(
        _start:
            li t0, 0x400
            li t1, 7
            sw t1, 0(t0)
            lw a0, 0(t0)
            ebreak
    )");
    DiagProcessor after_mem(DiagConfig::f4c2());
    ASSERT_TRUE(after_mem.run(mem_a).halted);
    const sim::RunStats rm = after_mem.run(b);
    EXPECT_EQ(rm.cycles, rf.cycles);
    EXPECT_EQ(countersJson(rm), countersJson(rf));
}

TEST(DiagProcessor, RunTwiceEqualsRunOnce)
{
    // Counters are per-run deltas: the second run of the same program
    // must report exactly what a fresh processor's first run reports
    // (the old code folded run 1's counters and cache state into run
    // 2's RunStats).
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
    DiagProcessor fresh(DiagConfig::f4c16());
    const sim::RunStats first = fresh.run(p);

    DiagProcessor reused(DiagConfig::f4c16());
    const sim::RunStats r1 = reused.run(p);
    const sim::RunStats r2 = reused.run(p);
    EXPECT_EQ(countersJson(r1), countersJson(first));
    EXPECT_EQ(r2.cycles, first.cycles);
    EXPECT_EQ(r2.instructions, first.instructions);
    EXPECT_EQ(countersJson(r2), countersJson(first));
}

TEST(DiagProcessor, RerunAfterWarmCachesStaysWarm)
{
    // loadProgram + warmCaches + two runs: the second run re-warms to
    // the same post-warm state, so both runs are identical.
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
    DiagProcessor proc(DiagConfig::f4c16());
    proc.loadProgram(p);
    proc.warmCaches();
    const sim::RunStats r1 = proc.run(p);
    const sim::RunStats r2 = proc.run(p);
    EXPECT_EQ(r2.cycles, r1.cycles);
    EXPECT_EQ(countersJson(r2), countersJson(r1));
}
