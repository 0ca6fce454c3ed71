/**
 * Static analyzer tests: for each pass one fixture that triggers its
 * diagnostics and one that stays silent, plus differential checks
 * asserting the static SIMT legality scan agrees with the ring control
 * unit's runtime scan on crafted regions and every bundled workload.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/simt_scan.hpp"
#include "asm/assembler.hpp"
#include "diag/ring.hpp"
#include "isa/decoder.hpp"
#include "workloads/workload.hpp"

using namespace diag;
using namespace diag::analysis;

namespace
{

LintResult
lint(const std::string &src, const LintOptions &opt = {})
{
    return lintProgram(assembler::assemble(src), opt);
}

/** True when some finding of @p pass at @p sev mentions @p needle. */
bool
has(const LintResult &r, const std::string &pass, Severity sev,
    const std::string &needle)
{
    for (const Diagnostic &d : r.diags) {
        if (d.pass == pass && d.severity == sev &&
            d.message.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

unsigned
countPass(const LintResult &r, const std::string &pass)
{
    unsigned n = 0;
    for (const Diagnostic &d : r.diags)
        n += d.pass == pass;
    return n;
}

std::string
nops(unsigned n)
{
    std::string s;
    for (unsigned i = 0; i < n; ++i)
        s += "    nop\n";
    return s;
}

/** A kernel with no findings at all: every lane written before read,
 *  every value consumed, terminated by ebreak, no loops. */
const char *kCleanProgram = R"(
    _start:
        li t0, 0x100000
        li t1, 7
        addi t2, t1, 1
        sw t2, 0(t0)
        ebreak
)";

} // namespace

// ---------------------------------------------------------------------
// Pass 1: CFG
// ---------------------------------------------------------------------

TEST(LintCfg, CleanProgramHasNoFindings)
{
    const LintResult r = lint(kCleanProgram);
    EXPECT_TRUE(r.clean()) << renderText(r);
}

TEST(LintCfg, FlagsUnreachableBlock)
{
    const LintResult r = lint(R"(
        _start:
            li t0, 1
            sw t0, 0(t0)
            ebreak
            addi t1, t0, 1
            addi t2, t0, 2
    )");
    EXPECT_TRUE(has(r, "cfg", Severity::Warning,
                    "unreachable code: 2 instruction"))
        << renderText(r);
    EXPECT_EQ(r.errors(), 0u);
}

TEST(LintCfg, FallingOffTheImageIsAnError)
{
    const LintResult r = lint(R"(
        _start:
            li t0, 1
            sw t0, 0(t0)
    )");
    EXPECT_EQ(r.errors(), 1u) << renderText(r);
    EXPECT_TRUE(has(r, "cfg", Severity::Error, "fall off the end"));
}

TEST(LintCfg, ReachableInvalidEncodingIsAnError)
{
    const LintResult r = lint(R"(
        _start:
            .word 0xffffffff
            ebreak
    )");
    EXPECT_TRUE(has(r, "cfg", Severity::Error,
                    "reachable invalid instruction encoding"))
        << renderText(r);
}

TEST(LintCfg, DataWordsAfterCodeAreNotUnreachableCode)
{
    // Constant-pool zeros behind the ebreak do not decode and must not
    // be flagged as unreachable instructions.
    const LintResult r = lint(R"(
        _start:
            li t0, 1
            sw t0, 0(t0)
            ebreak
            .word 0
            .word 0
    )");
    EXPECT_EQ(countPass(r, "cfg"), 0u) << renderText(r);
}

// ---------------------------------------------------------------------
// Pass 2: register-lane liveness
// ---------------------------------------------------------------------

TEST(LintLiveness, FlagsUndefinedLaneRead)
{
    const LintResult r = lint(R"(
        _start:
            li t0, 0x100000
            add t1, t0, s0
            sw t1, 0(t0)
            ebreak
    )");
    EXPECT_TRUE(has(r, "liveness", Severity::Warning,
                    "read here but no write precedes it"))
        << renderText(r);
}

TEST(LintLiveness, AbiEntryRegistersAreDefined)
{
    const char *src = R"(
        _start:
            li t0, 0x100000
            slli t1, a0, 2
            add t1, t1, t0
            sw a1, 0(t1)
            ebreak
    )";
    // Reading a0/a1 without a convention is an undefined-lane read...
    EXPECT_TRUE(has(lint(src), "liveness", Severity::Warning,
                    "read here but no write precedes it"));
    // ...but clean under the harness convention (a0=tid, a1=nthreads).
    const LintResult abi = lint(src, LintOptions::abiEntry());
    EXPECT_EQ(countPass(abi, "liveness"), 0u) << renderText(abi);
}

TEST(LintLiveness, FlagsDeadWrite)
{
    const LintResult r = lint(R"(
        _start:
            li t1, 0x100000
            li t0, 1
            li t0, 2
            sw t0, 0(t1)
            ebreak
    )");
    EXPECT_TRUE(has(r, "liveness", Severity::Warning, "dead write"))
        << renderText(r);
}

TEST(LintLiveness, ValueCarriedAcrossLoopIsNotDead)
{
    // s0 accumulates across iterations: live along the back edge.
    const LintResult r = lint(R"(
        _start:
            li t0, 4
            li s0, 0
        loop:
            add s0, s0, t0
            addi t0, t0, -1
            bnez t0, loop
            li t1, 0x100000
            sw s0, 0(t1)
            ebreak
    )");
    EXPECT_EQ(countPass(r, "liveness"), 0u) << renderText(r);
}

TEST(LintLiveness, FlagsResultDiscardedIntoX0)
{
    const LintResult r = lint(R"(
        _start:
            li t0, 3
            add x0, t0, t0
            sw t0, 0(t0)
            ebreak
    )");
    EXPECT_TRUE(has(r, "liveness", Severity::Warning,
                    "discards its result into x0"))
        << renderText(r);
}

TEST(LintLiveness, CanonicalNopIsNotAnX0Discard)
{
    const LintResult r = lint(R"(
        _start:
            nop
            li t0, 3
            sw t0, 0(t0)
            ebreak
    )");
    EXPECT_EQ(countPass(r, "liveness"), 0u) << renderText(r);
}

// ---------------------------------------------------------------------
// Pass 3: SIMT region legality
// ---------------------------------------------------------------------

namespace
{

/** A legal one-line pipelineable region (vector increment). */
const char *kLegalSimt = R"(
    _start:
        li s2, 0x100000
        li a2, 0
        li a3, 4
        li a4, 64
    head:
        simt_s a2, a3, a4, 1
        add t5, s2, a2
        lw t6, 0(t5)
        addi t6, t6, 1
        sw t6, 0(t5)
        simt_e a2, a4, head
        ebreak
)";

/** Body reads s0 then writes it: a cross-iteration lane dependence. */
const char *kLoopCarried = R"(
    _start:
        li s0, 0
        li a2, 0
        li a3, 1
        li a4, 8
    head:
        simt_s a2, a3, a4, 1
        add s0, s0, a2
        simt_e a2, a4, head
        li t0, 0x100000
        sw s0, 0(t0)
        ebreak
)";

/** An inner loop inside the region: backward control flow. */
const char *kBackwardBranch = R"(
    _start:
        li s0, 0
        li a2, 0
        li a3, 1
        li a4, 8
    head:
        simt_s a2, a3, a4, 1
        li t0, 2
    inner:
        addi t0, t0, -1
        bnez t0, inner
        simt_e a2, a4, head
        li t1, 0x100000
        sw s0, 0(t1)
        ebreak
)";

} // namespace

TEST(LintSimt, LegalRegionIsSilent)
{
    const LintResult r = lint(kLegalSimt);
    EXPECT_TRUE(r.clean()) << renderText(r);
}

TEST(LintSimt, FlagsUnmatchedSimtStart)
{
    // No simt_e anywhere: the scan runs into the ebreak.
    const LintResult r = lint(R"(
        _start:
            li a2, 0
            li a3, 1
            li a4, 8
        head:
            simt_s a2, a3, a4, 1
            add t0, a2, a3
            sw t0, 0(t0)
            ebreak
    )");
    EXPECT_EQ(countPass(r, "simt"), 1u) << renderText(r);
    EXPECT_TRUE(has(r, "simt", Severity::Warning,
                    "executes serially"));
}

TEST(LintSimt, FlagsNestedRegions)
{
    const LintResult r = lint(R"(
        _start:
            li a2, 0
            li a3, 1
            li a4, 8
        head:
            simt_s a2, a3, a4, 1
        head2:
            simt_s a2, a3, a4, 1
            simt_e a2, a4, head2
            simt_e a2, a4, head
            ebreak
    )");
    EXPECT_TRUE(has(r, "simt", Severity::Warning, "nested simt_s"))
        << renderText(r);
}

TEST(LintSimt, FlagsCrossIterationDependence)
{
    const LintResult r = lint(kLoopCarried);
    EXPECT_TRUE(has(r, "simt", Severity::Warning,
                    "carries a value across iterations"))
        << renderText(r);
    EXPECT_TRUE(has(r, "simt", Severity::Warning, "x8"));  // s0
}

TEST(LintSimt, FlagsBackwardBranchInRegion)
{
    const LintResult r = lint(kBackwardBranch);
    EXPECT_TRUE(has(r, "simt", Severity::Warning, "backward branch"))
        << renderText(r);
}

TEST(LintSimt, FlagsRegionExceedingRingCapacity)
{
    // With 16-byte lines and a 2-cluster ring the region below spans
    // 3 I-lines (body 0x1018..simt_e 0x1034): too many to lay a
    // thread pipeline out, though its 8 instructions fit the capacity.
    const std::string src = "    _start:\n"
                            "        li a2, 0\n"
                            "        li a3, 1\n"
                            "        li a4, 8\n" +
                            nops(2) +
                            "    head:\n"
                            "        simt_s a2, a3, a4, 1\n" +
                            nops(7) +
                            "        simt_e a2, a4, head\n"
                            "        ebreak\n";
    LintOptions opt;
    opt.line_bytes = 16;
    opt.clusters_per_ring = 2;
    const LintResult r = lint(src, opt);
    EXPECT_TRUE(has(r, "simt", Severity::Warning, "spans 3 I-lines"))
        << renderText(r);
    // The same region fits a full-size ring.
    const LintResult big = lint(src);
    EXPECT_EQ(countPass(big, "simt"), 0u) << renderText(big);
}

TEST(LintSimt, DisabledSimtSkipsThePass)
{
    LintOptions opt;
    opt.simt_enabled = false;
    const LintResult r = lint(kLoopCarried, opt);
    EXPECT_EQ(countPass(r, "simt"), 0u) << renderText(r);
}

TEST(SimtTrips, ClosedFormMatchesALiteralDoWhileWalk)
{
    // simt_e's loop, executed literally: u32 counter, signed test.
    const auto walk = [](u32 rc, u32 step, u32 end) {
        SimtTrips r;
        for (;;) {
            ++r.trips;
            rc += step;
            if (static_cast<i32>(step) >= 0
                    ? static_cast<i32>(rc) >= static_cast<i32>(end)
                    : static_cast<i32>(rc) <= static_cast<i32>(end))
                return r;
            if (r.trips == kSimtTripCap) {
                r.capped = true;
                return r;
            }
        }
    };
    const u32 kMax = 0x7fffffffu;
    const u32 kMin = 0x80000000u;
    const struct
    {
        u32 rc0, step, end;
        u64 trips;
        bool capped;
    } rows[] = {
        {5, 0, 9, kSimtTripCap, true},      // step 0, entry test holds
        {9, 0, 5, 1, false},                // step 0, entry test fails
        {0, 1, 768, 768, false},            // positive unit step
        {0, 3, 10, 4, false},               // last step overshoots
        {static_cast<u32>(-7), 2, 5, 6, false},  // negative start
        {100, static_cast<u32>(-1), 0, 100, false},   // negative step
        {100, static_cast<u32>(-7), 1, 15, false},
        {10, 1, 3, 1, false},               // end behind rc0 (up)
        {3, static_cast<u32>(-1), 10, 1, false},  // end behind (down)
        {kMax - 2, 1, kMax, 2, false},      // stops just before wrap
        {0x30000000, 0x60000000, 0x70000000, 6, false},  // wraps, exits
        {0xd0000000, 0xa0000000, 0x90000000, 6, false},  // same, down
        {kMax - 5, 4, kMax, kSimtTripCap, true},  // wraps, spins
        {kMin + 5, static_cast<u32>(-4), kMin, kSimtTripCap, true},
        {0, 1, kMax, kSimtTripCap, true},   // the cap
        {0, 1, 1u << 20, 1u << 20, false},  // exactly the cap, exits
        {0, 1, (1u << 20) + 1, kSimtTripCap, true},
    };
    for (const auto &row : rows) {
        const SimtTrips got = simtTripCount(row.rc0, row.step, row.end);
        const SimtTrips ref = walk(row.rc0, row.step, row.end);
        EXPECT_EQ(got.trips, ref.trips)
            << row.rc0 << " " << row.step << " " << row.end;
        EXPECT_EQ(got.capped, ref.capped)
            << row.rc0 << " " << row.step << " " << row.end;
        EXPECT_EQ(got.trips, row.trips) << row.rc0 << " " << row.end;
        EXPECT_EQ(got.capped, row.capped) << row.rc0 << " " << row.end;
    }
}

// ---------------------------------------------------------------------
// Pass 4: reuse / cluster-fit diagnostics
// ---------------------------------------------------------------------

TEST(LintReuse, FlagsLoopLargerThanTheRing)
{
    // 16-byte lines, 2 clusters: a 3-line loop cannot stay resident.
    const std::string src = "    _start:\n"
                            "        li t0, 3\n"
                            "    loop:\n" +
                            nops(9) +
                            "        addi t0, t0, -1\n"
                            "        bnez t0, loop\n"
                            "        ebreak\n";
    LintOptions opt;
    opt.line_bytes = 16;
    opt.clusters_per_ring = 2;
    const LintResult r = lint(src, opt);
    EXPECT_TRUE(has(r, "reuse", Severity::Warning,
                    "cannot stay resident"))
        << renderText(r);
    // The same loop fits a 64-byte-line, 32-cluster ring untouched.
    const LintResult big = lint(src);
    EXPECT_EQ(countPass(big, "reuse"), 0u) << renderText(big);
}

TEST(LintReuse, NotesLoopStraddlingALineBoundary)
{
    // 15 filler instructions put the loop head at 0x103c, so its tiny
    // body crosses the 0x1040 line boundary and occupies 2 clusters.
    const std::string src = "    _start:\n"
                            "        li t0, 3\n" +
                            nops(14) +
                            "    loop:\n"
                            "        addi t0, t0, -1\n"
                            "        bnez t0, loop\n"
                            "        ebreak\n";
    const LintResult r = lint(src);
    EXPECT_TRUE(has(r, "reuse", Severity::Note, "straddles an I-line"))
        << renderText(r);
    // One fewer nop keeps the body inside one line: silent.
    const std::string aligned = "    _start:\n"
                                "        li t0, 3\n" +
                                nops(13) +
                                "    loop:\n"
                                "        addi t0, t0, -1\n"
                                "        bnez t0, loop\n"
                                "        ebreak\n";
    const LintResult ok = lint(aligned);
    EXPECT_EQ(countPass(ok, "reuse"), 0u) << renderText(ok);
}

// ---------------------------------------------------------------------
// Emitters
// ---------------------------------------------------------------------

TEST(LintRender, TextAndJsonCarryTheFindings)
{
    const LintResult r = lint(R"(
        _start:
            li t0, 1
            sw t0, 0(t0)
    )");
    const std::string text = renderText(r);
    EXPECT_NE(text.find("error:"), std::string::npos) << text;
    EXPECT_NE(text.find("[cfg]"), std::string::npos) << text;
    const std::string json = renderJson(r);
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"pass\": \"cfg\""), std::string::npos)
        << json;
}

// ---------------------------------------------------------------------
// Differential: the static scan is the ring control unit's oracle
// ---------------------------------------------------------------------

namespace
{

/** Every simt_s pc in the emitted image of @p prog. */
std::vector<Addr>
simtStarts(const Program &prog)
{
    std::vector<Addr> pcs;
    for (const ProgramChunk &c : prog.chunks)
        for (Addr pc = c.base; pc + 4 <= c.base + c.size; pc += 4)
            if (isa::decode(prog.word(pc)).op == isa::Op::SIMT_S)
                pcs.push_back(pc);
    return pcs;
}

/** Compare the static scan with Ring::scanSimtRegion at every simt_s. */
unsigned
compareScans(const Program &prog, const std::string &label)
{
    const core::DiagConfig cfg = core::DiagConfig::f4c32();
    mem::MemHierarchy mh(cfg.mem, 1);
    mem::Bus bus("lint_diff_bus");
    StatGroup stats("lint_diff");
    core::Ring ring(cfg, 0, mh, bus, stats);

    SparseMemory mem;
    prog.loadInto(mem);
    unsigned regions = 0;
    for (const Addr pc : simtStarts(prog)) {
        ++regions;
        const SimtScan stat = scanSimtRegion(
            pc, mem, cfg.pes_per_cluster * 4, cfg.clustersPerRing());
        const core::Ring::SimtRegion dyn = ring.scanSimtRegion(pc, mem);
        EXPECT_EQ(stat.ok(), dyn.ok)
            << label << " simt_s at 0x" << std::hex << pc << " static "
            << simtScanStatusName(stat.status);
        if (stat.ok() && dyn.ok)
            EXPECT_EQ(stat.simt_e_pc, dyn.simt_e_pc) << label;
    }
    return regions;
}

} // namespace

TEST(LintDifferential, CraftedRegionsAgreeWithTheRing)
{
    EXPECT_EQ(compareScans(assembler::assemble(kLegalSimt), "legal"),
              1u);
    EXPECT_EQ(compareScans(assembler::assemble(kLoopCarried),
                           "loop-carried"),
              1u);
    EXPECT_EQ(compareScans(assembler::assemble(kBackwardBranch),
                           "backward"),
              1u);
}

TEST(LintDifferential, WorkloadRegionsAgreeWithTheRing)
{
    unsigned regions = 0;
    auto sweep = [&](const std::vector<workloads::Workload> &suite) {
        for (const workloads::Workload &w : suite) {
            if (w.asm_simt.empty())
                continue;
            regions += compareScans(assembler::assemble(w.asm_simt),
                                    w.name);
        }
    };
    sweep(workloads::rodiniaSuite());
    sweep(workloads::specSuite());
    EXPECT_GT(regions, 0u);
}

TEST(LintDifferential, AllBundledWorkloadsLintWithoutFindings)
{
    auto sweep = [&](const std::vector<workloads::Workload> &suite) {
        for (const workloads::Workload &w : suite) {
            for (const std::string *src : {&w.asm_serial, &w.asm_simt}) {
                if (src->empty())
                    continue;
                const LintResult r =
                    lint(*src, LintOptions::abiEntry());
                EXPECT_EQ(r.errors(), 0u)
                    << w.name << ":\n" << renderText(r);
                EXPECT_EQ(r.warnings(), 0u)
                    << w.name << ":\n" << renderText(r);
            }
        }
    };
    sweep(workloads::rodiniaSuite());
    sweep(workloads::specSuite());
}
