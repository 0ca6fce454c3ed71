/** Unit tests for the DiAG activation engine: lane timing, forward
 *  branches, ILP exposure, memory-lane forwarding. */
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "diag/activation.hpp"
#include "isa/decoder.hpp"

using namespace diag;
using namespace diag::core;
using namespace diag::isa;

namespace
{

/** Harness owning everything an activation needs. */
struct Rig
{
    DiagConfig cfg = DiagConfig::f4c2();
    mem::MemHierarchy mh{cfg.mem, 1};
    DiagCounters counters;
    ActivationEngine engine{cfg, mh, 0, counters};
    SparseMemory mem;
    sim::StoreTracker tmc{mem, cfg.mem_lane_entries};
    Cluster cl;
    /** Lane file, updated in place by run(); holds the output-latch
     *  state afterwards (what ActivationOutput::regs used to carry). */
    LaneFile regs{};

    /** Load a line of assembly (at most 16 instructions) at 0x1000. */
    void
    load(const std::string &src)
    {
        const Program p = assembler::assemble(".org 0x1000\n" + src);
        p.loadInto(mem);
        cl.index = 0;
        cl.line_base = 0x1000;
        cl.insts.clear();
        for (unsigned i = 0; i < cfg.pes_per_cluster; ++i)
            cl.insts.push_back(decode(mem.read32(0x1000 + 4 * i)));
    }

    ActivationOutput
    run(Addr entry = 0x1000, const LaneFile &init = {})
    {
        regs = init;
        ActivationInput in;
        in.cluster = &cl;
        in.entry_pc = entry;
        return engine.run(in, regs, tmc);
    }
};

} // namespace

TEST(Activation, StraightLineRetiresAll)
{
    Rig rig;
    rig.load(R"(
        addi x1, x0, 1
        addi x2, x0, 2
        add x3, x1, x2
        ebreak
    )");
    const ActivationOutput out = rig.run();
    EXPECT_EQ(out.exit, ActExit::Halt);
    EXPECT_FALSE(out.faulted);
    EXPECT_EQ(out.retired, 4u);
    EXPECT_EQ(rig.regs[3].value, 3u);
}

TEST(Activation, IndependentOpsOverlap)
{
    // Eight independent ALU ops in one segment finish in far fewer
    // cycles than eight dependent ones.
    Rig rig;
    rig.load(R"(
        addi x1, x0, 1
        addi x2, x0, 1
        addi x3, x0, 1
        addi x4, x0, 1
        addi x5, x0, 1
        addi x6, x0, 1
        addi x7, x0, 1
        ebreak
    )");
    const ActivationOutput ind = rig.run();

    Rig rig2;
    rig2.load(R"(
        addi x1, x0, 1
        addi x1, x1, 1
        addi x1, x1, 1
        addi x1, x1, 1
        addi x1, x1, 1
        addi x1, x1, 1
        addi x1, x1, 1
        ebreak
    )");
    const ActivationOutput dep = rig2.run();
    EXPECT_EQ(rig2.regs[1].value, 7u);
    // Dependent chain: one op per cycle; independent: all start at 0.
    EXPECT_LT(ind.end_cycle + 4, dep.end_cycle);
}

TEST(Activation, WawAndWarDoNotSerialize)
{
    // i1 overwrites x1 (WAW with i0); i2 reads the *final* x1. A lane
    // only changes for subsequent PEs, so i0's long-latency divide
    // cannot corrupt x1 for i2, and i1/i2 need not wait for it.
    Rig rig;
    rig.load(R"(
        div x1, x2, x3
        addi x1, x0, 9
        addi x4, x1, 0
        ebreak
    )");
    LaneFile regs{};
    regs[2].value = 100;
    regs[3].value = 5;
    const ActivationOutput out = rig.run(0x1000, regs);
    EXPECT_EQ(rig.regs[1].value, 9u);
    EXPECT_EQ(rig.regs[4].value, 9u);
    // x4 is ready long before the divide's 12-cycle latency...
    EXPECT_LT(rig.regs[4].ready, 10u);
    // ...but retirement (PC lane) still waits for the divide.
    EXPECT_GE(out.pc_exit, 12u);
}

TEST(Activation, ForwardSkipWithinCluster)
{
    Rig rig;
    rig.load(R"(
        addi x1, x0, 1
        beq x1, x1, target
        addi x2, x0, 99   # skipped
        addi x3, x0, 98   # skipped
        target:
        addi x4, x0, 5
        ebreak
    )");
    const ActivationOutput out = rig.run();
    EXPECT_EQ(out.exit, ActExit::Halt);
    EXPECT_EQ(rig.regs[2].value, 0u);  // never executed
    EXPECT_EQ(rig.regs[3].value, 0u);
    EXPECT_EQ(rig.regs[4].value, 5u);
    EXPECT_EQ(out.retired, 4u);  // addi, beq, addi, ebreak
    EXPECT_EQ(out.taken_branches, 1u);
}

TEST(Activation, NotTakenBranchFallsThrough)
{
    Rig rig;
    rig.load(R"(
        addi x1, x0, 1
        bne x1, x1, target
        addi x2, x0, 7
        target:
        ebreak
    )");
    const ActivationOutput out = rig.run();
    EXPECT_EQ(rig.regs[2].value, 7u);
    EXPECT_EQ(out.taken_branches, 0u);
}

TEST(Activation, BackwardBranchExitsCluster)
{
    Rig rig;
    rig.load(R"(
        head:
        addi x1, x1, 1
        bne x1, x2, head
        ebreak
    )");
    LaneFile regs{};
    regs[2].value = 5;
    const ActivationOutput out = rig.run(0x1000, regs);
    EXPECT_EQ(out.exit, ActExit::Redirect);
    EXPECT_EQ(out.exit_pc, 0x1000u);
    EXPECT_EQ(rig.regs[1].value, 1u);
}

TEST(Activation, FallThroughReportsNextLine)
{
    Rig rig;
    std::string src;
    for (int i = 0; i < 16; ++i)
        src += "addi x1, x1, 1\n";
    rig.load(src);
    const ActivationOutput out = rig.run();
    EXPECT_EQ(out.exit, ActExit::FellThrough);
    EXPECT_EQ(out.exit_pc, 0x1040u);
    EXPECT_EQ(rig.regs[1].value, 16u);
    EXPECT_EQ(out.retired, 16u);
}

TEST(Activation, SegmentBufferAddsLatency)
{
    // A value produced in segment 0 costs one extra cycle to reach
    // segment 1 (PEs 8..15).
    Rig rig;
    std::string src = "addi x1, x0, 42\n";  // PE 0, seg 0
    for (int i = 0; i < 7; ++i)
        src += "addi x20, x0, 0\n";         // filler PEs 1..7
    src += "addi x2, x1, 0\n";              // PE 8, seg 1
    src += "ebreak\n";
    rig.load(src);
    rig.run();
    // Producer done at 1; +1 segment crossing; consumer runs [2,3).
    EXPECT_EQ(rig.regs[2].value, 42u);
    EXPECT_EQ(rig.regs[2].ready, 3u);
}

TEST(Activation, StoreToLoadForwarding)
{
    Rig rig;
    rig.load(R"(
        sw x1, 0(x2)
        lw x3, 0(x2)
        ebreak
    )");
    LaneFile regs{};
    regs[1].value = 123;
    regs[2].value = 0x8000;
    rig.run(0x1000, regs);
    EXPECT_EQ(rig.regs[3].value, 123u);
    EXPECT_EQ(rig.counters[DiagCounter::memlane_fwd], 1u);
    EXPECT_EQ(rig.tmc.mem().read32(0x8000), 123u);
}

TEST(Activation, MemLanesDisabledGoesToCache)
{
    Rig rig;
    rig.cfg.mem_lanes_enabled = false;
    rig.load(R"(
        sw x1, 0(x2)
        lw x3, 0(x2)
        ebreak
    )");
    LaneFile regs{};
    regs[1].value = 55;
    regs[2].value = 0x8000;
    rig.run(0x1000, regs);
    EXPECT_EQ(rig.regs[3].value, 55u);  // still correct
    EXPECT_EQ(rig.counters[DiagCounter::memlane_fwd], 0u);
}

TEST(Activation, LoadWaitsForOlderStoreAddress)
{
    // The store's address depends on a slow divide; the younger load
    // must not issue before the store address resolves.
    Rig rig;
    rig.load(R"(
        div x2, x5, x6
        sw x1, 0(x2)
        lw x3, 64(x7)
        ebreak
    )");
    LaneFile regs{};
    regs[1].value = 9;
    regs[5].value = 0x10000;
    regs[6].value = 2;      // x2 = 0x8000 after 12-cycle divide
    regs[7].value = 0x9000; // disjoint address
    rig.run(0x1000, regs);
    EXPECT_EQ(rig.regs[3].value, 0u);
    // Load issue gated by store address (>= 12 cycles).
    EXPECT_GE(rig.regs[3].ready, 12u);
}

TEST(Activation, LineBufferHitIsFast)
{
    Rig rig;
    rig.load(R"(
        lw x3, 0(x2)
        lw x4, 4(x2)
        ebreak
    )");
    LaneFile regs{};
    regs[2].value = 0x8000;
    rig.run(0x1000, regs);
    EXPECT_EQ(rig.counters[DiagCounter::linebuf_hits], 1u);  // second load
}

TEST(Activation, MidLineEntryDisablesEarlierPes)
{
    Rig rig;
    rig.load(R"(
        addi x1, x0, 1
        addi x2, x0, 2
        addi x3, x0, 3
        ebreak
    )");
    const ActivationOutput out = rig.run(0x1008);  // enter at 3rd inst
    EXPECT_EQ(rig.regs[1].value, 0u);
    EXPECT_EQ(rig.regs[2].value, 0u);
    EXPECT_EQ(rig.regs[3].value, 3u);
    EXPECT_EQ(out.retired, 2u);
}

TEST(Activation, InvalidInstructionFaults)
{
    Rig rig;
    rig.load(".word 0\n");
    const ActivationOutput out = rig.run();
    EXPECT_EQ(out.exit, ActExit::Halt);
    EXPECT_TRUE(out.faulted);
    EXPECT_EQ(out.retired, 0u);
}

TEST(Activation, JalLinksAndRedirects)
{
    Rig rig;
    rig.load(R"(
        jal x1, 0x2000
    )");
    const ActivationOutput out = rig.run();
    EXPECT_EQ(out.exit, ActExit::Redirect);
    EXPECT_EQ(out.exit_pc, 0x2000u);
    EXPECT_EQ(rig.regs[1].value, 0x1004u);
}
