/**
 * Memory-dependence pass tests: the load classification lattice
 * (lane-forwardable / LSU-serialized / unknown-alias), the
 * cross-iteration store-to-load race error inside simt regions with
 * its lane-forwardable counterpart accepted, CAM pressure notes, an
 * execution oracle that checks every decided load of a generated
 * corpus against the golden interpreter, and the byte-stability of
 * the finalized diagnostic stream.
 */
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "harness/validate_verify.hpp"
#include "sim/fuzz.hpp"
#include "sim/golden.hpp"
#include "workloads/workload.hpp"

using namespace diag;
using namespace diag::analysis;

namespace
{

ProgramAnalysis
analyze(const std::string &src, const LintOptions &opt = {})
{
    return analyzeProgram(assembler::assemble(src), opt);
}

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

/** The pipelined-thread race: every iteration reads and writes the
 *  same fixed address, so the value loaded depends on thread timing. */
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

/** The accepted counterpart: same store->load shape, but the address
 *  moves with the loop-control lane, so each thread touches its own
 *  cell and the memory lanes forward the store to the load. */
const char *kForwardable = R"(
    _start:
        li s2, 0x100000
        li a2, 0
        li a3, 4
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

} // namespace

TEST(MemDep, CrossIterationRaceIsRejected)
{
    const ProgramAnalysis a = analyze(kCarriedRace);
    EXPECT_GT(a.lint.errors(), 0u) << renderText(a.lint);
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Error,
                    "cross-iteration store-to-load race"))
        << renderText(a.lint);
    ASSERT_EQ(a.memdep.regions.size(), 1u);
    EXPECT_TRUE(a.memdep.regions[0].carried_race);
}

TEST(MemDep, ForwardableCounterpartIsAccepted)
{
    const ProgramAnalysis a = analyze(kForwardable);
    EXPECT_EQ(a.lint.errors(), 0u) << renderText(a.lint);
    ASSERT_EQ(a.memdep.regions.size(), 1u);
    const RegionMemDep &r = a.memdep.regions[0];
    EXPECT_FALSE(r.carried_race);
    ASSERT_EQ(r.loads.size(), 1u);
    EXPECT_EQ(r.loads[0].cls, LoadClass::LaneForwardable);
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Note,
                    "forwards from the store"))
        << renderText(a.lint);
}

TEST(MemDep, PartialOverlapSerializesThroughLsu)
{
    const ProgramAnalysis a = analyze(R"(
        _start:
            li t0, 0x100000
            li t1, 5
            sw t1, 0(t0)
            lw t2, 2(t0)
            sw t2, 64(t0)
            ebreak
    )");
    ASSERT_EQ(a.memdep.loads.size(), 1u);
    EXPECT_EQ(a.memdep.loads[0].cls, LoadClass::LsuSerialized);
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Note,
                    "serializes through the LSU"))
        << renderText(a.lint);
}

TEST(MemDep, OpaqueStoreLeavesLoadUndecided)
{
    const ProgramAnalysis a = analyze(R"(
        _start:
            li t0, 0x100000
            lw t3, 0(t0)
            li t1, 5
            sw t1, 0(t3)
            lw t2, 4(t0)
            sw t2, 64(t0)
            ebreak
    )");
    // The second load's window holds a store through an opaque base:
    // whether the CAM matches is unknowable statically.
    bool found = false;
    for (const LoadDep &ld : a.memdep.loads)
        if (ld.cls == LoadClass::UnknownAlias)
            found = true;
    EXPECT_TRUE(found);
}

TEST(MemDep, StrideMismatchWarnsOfPossibleAliasing)
{
    const ProgramAnalysis a = analyze(R"(
        _start:
            li s2, 0x100000
            li a2, 0
            li a3, 4
            li a4, 64
        head:
            simt_s a2, a3, a4, 1
            add t5, s2, a2
            slli t6, a2, 1
            add t6, s2, t6
            li t3, 9
            sw t3, 0(t5)
            lw t4, 0(t6)
            sw t4, 4(t6)
            simt_e a2, a4, head
            ebreak
    )");
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Warning,
                    "share a base address"))
        << renderText(a.lint);
}

TEST(MemDep, ReorderedScaledSumForwardsInBlockScope)
{
    // a0 + (a1 << 2) and (a1 << 2) + a0 are one address: the shifted
    // lane keeps its base term at scale 4, and the two-base sum is one
    // term whatever the operand order.
    const ProgramAnalysis a = analyze(R"(
        _start:
            slli t0, a1, 2
            add t1, a0, t0
            li t2, 5
            sw t2, 0(t1)
            slli t3, a1, 2
            add t4, t3, a0
            lw t5, 0(t4)
            sw t5, 64(t1)
            ebreak
    )",
                                      LintOptions::abiEntry());
    ASSERT_EQ(a.memdep.loads.size(), 1u);
    EXPECT_EQ(a.memdep.loads[0].cls, LoadClass::LaneForwardable);
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Note,
                    "forwards from the store"))
        << renderText(a.lint);
}

TEST(MemDep, ReorderedBaseSumForwardsInSimtRegion)
{
    // s2 + s3 + rc and s3 + s2 + rc name the same per-thread cell.
    const ProgramAnalysis a = analyze(R"(
        _start:
            li s2, 0x100000
            li s3, 64
            li a2, 0
            li a3, 8
            li a4, 64
        head:
            simt_s a2, a3, a4, 1
            add t0, s2, s3
            add t0, t0, a2
            li t6, 7
            sw t6, 0(t0)
            add t1, s3, s2
            add t1, t1, a2
            lw t4, 0(t1)
            sw t4, 4(t0)
            simt_e a2, a4, head
            ebreak
    )");
    EXPECT_EQ(a.lint.errors(), 0u) << renderText(a.lint);
    ASSERT_EQ(a.memdep.regions.size(), 1u);
    const RegionMemDep &r = a.memdep.regions[0];
    ASSERT_EQ(r.loads.size(), 1u);
    EXPECT_EQ(r.loads[0].cls, LoadClass::LaneForwardable);
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Note,
                    "forwards from the store"))
        << renderText(a.lint);
}

TEST(MemDep, CamPressureNoteWhenDemandExceedsEntries)
{
    LintOptions opt;
    opt.timing.mem_lane_entries = 4;
    const ProgramAnalysis a = analyze(kForwardable, opt);
    EXPECT_TRUE(has(a.lint, "memdep", Severity::Note,
                    "memory-lane pressure"))
        << renderText(a.lint);
}

// ---------------------------------------------------------------------
// Execution oracle: every load memdep decides is checked against the
// addresses the golden interpreter computes. A lane-forwardable load
// must read only bytes written by the latest execution of its deciding
// store; an LSU-serialized load must overlap that store, but not be
// covered by it.
// ---------------------------------------------------------------------

namespace
{

struct OracleTally
{
    unsigned programs = 0; //!< programs with at least one decided load
    unsigned checked = 0;  //!< executions of decided loads
    std::vector<std::string> violations;
};

void
checkDecidedLoads(const sim::FuzzOptions &fo, OracleTally &t)
{
    const Program prog =
        assembler::assemble(sim::generateFuzzProgram(fo));
    // Generated programs define their own registers: no lanes are
    // defined at entry.
    const ProgramAnalysis a = analyzeProgram(prog);
    std::map<Addr, LoadDep> decided;
    const auto collect = [&](const std::vector<LoadDep> &loads) {
        for (const LoadDep &ld : loads)
            if (ld.cls != LoadClass::UnknownAlias)
                decided[ld.pc] = ld;
    };
    collect(a.memdep.loads);
    for (const RegionMemDep &r : a.memdep.regions)
        collect(r.loads);
    if (decided.empty())
        return;
    ++t.programs;

    struct Bytes
    {
        i64 lo = 0;
        i64 hi = 0; //!< one past the last byte
    };
    std::map<Addr, Bytes> last_store; // store pc -> latest execution
    sim::GoldenSim gold(prog);
    for (u64 n = 0; n < 2'000'000 && !gold.halted(); ++n) {
        const sim::StepInfo s = gold.step();
        if (!s.is_mem)
            continue;
        const Bytes b{static_cast<i64>(s.mem_addr),
                      static_cast<i64>(s.mem_addr) +
                          s.inst.info().memBytes};
        if (s.inst.isStore()) {
            last_store[s.pc] = b;
            continue;
        }
        const auto d = decided.find(s.pc);
        if (d == decided.end())
            continue;
        ++t.checked;
        const LoadDep &ld = d->second;
        const auto st = last_store.find(ld.store_pc);
        std::string bad;
        if (st == last_store.end()) {
            bad = "its deciding store never executed";
        } else {
            const Bytes &sb = st->second;
            const bool covered = b.lo >= sb.lo && b.hi <= sb.hi;
            const bool overlap = b.lo < sb.hi && sb.lo < b.hi;
            if (ld.cls == LoadClass::LaneForwardable && !covered)
                bad = "a lane-forwardable load is not covered";
            else if (ld.cls == LoadClass::LsuSerialized &&
                     (covered || !overlap))
                bad = "an LSU-serialized load does not overlap "
                      "partially";
        }
        if (!bad.empty())
            t.violations.push_back(detail::vformat(
                "seed %llu: load 0x%08x (store 0x%08x): %s",
                static_cast<unsigned long long>(fo.seed), s.pc,
                ld.store_pc, bad.c_str()));
    }
}

/** The oracle's corpora: generator defaults, RV32F, simt regions, and
 *  diag-verify's simt corpus (injected hazards, no calls). */
const char *const kOracleProfiles[] = {"default", "fp", "simt",
                                       "verify-simt"};

sim::FuzzOptions
oracleOptions(unsigned profile, u64 seed)
{
    if (profile == 3)
        return harness::fuzzOptionsFor(seed,
                                       harness::FuzzProfile::Simt);
    sim::FuzzOptions fo;
    fo.seed = seed;
    fo.use_fp = profile == 1;
    fo.use_simt = profile == 2;
    return fo;
}

} // namespace

TEST(MemDep, DecidedLoadsAgreeWithGoldenExecution)
{
    OracleTally total;
    for (unsigned p = 0; p < std::size(kOracleProfiles); ++p) {
        OracleTally t;
        for (u64 seed = 1; seed <= 1000; ++seed)
            checkDecidedLoads(oracleOptions(p, seed), t);
        EXPECT_TRUE(t.violations.empty())
            << kOracleProfiles[p] << ": " << t.violations.size()
            << " violation(s) over " << t.checked
            << " checked load(s); first: " << t.violations.front();
        total.programs += t.programs;
        total.checked += t.checked;
    }
    // The oracle must have something to check: 663 programs and 6,230
    // load executions when it was written.
    EXPECT_GE(total.programs, 600u);
    EXPECT_GE(total.checked, 6000u);
}

// ---------------------------------------------------------------------
// Deterministic diagnostics: the finalized stream is sorted by
// (pc, pass, severity), deduplicated, and byte-stable across runs.
// ---------------------------------------------------------------------

TEST(Diagnostics, FinalizedStreamIsSortedAndDeduped)
{
    LintResult r;
    r.add(Severity::Note, 0x20, "bbb", "later");
    r.add(Severity::Warning, 0x10, "bbb", "mid");
    r.add(Severity::Error, 0x10, "aaa", "first");
    r.add(Severity::Warning, 0x10, "bbb", "mid");  // exact duplicate
    r.finalize();
    ASSERT_EQ(r.diags.size(), 3u);
    EXPECT_EQ(r.diags[0].pass, "aaa");
    EXPECT_EQ(r.diags[1].message, "mid");
    EXPECT_EQ(r.diags[2].pc, 0x20u);
}

TEST(Diagnostics, WorkloadAnalysisIsByteStable)
{
    auto renderAll = [](const std::string &src) {
        const ProgramAnalysis a = analyzeProgram(
            assembler::assemble(src), LintOptions::abiEntry());
        return renderJson(a.lint) + renderBoundJson(a.bound);
    };
    auto checkSuite = [&](const std::vector<workloads::Workload> &ws) {
        for (const auto &w : ws) {
            EXPECT_EQ(renderAll(w.asm_serial), renderAll(w.asm_serial))
                << w.name;
            if (!w.asm_simt.empty()) {
                EXPECT_EQ(renderAll(w.asm_simt),
                          renderAll(w.asm_simt))
                    << w.name;
            }
        }
    };
    checkSuite(workloads::rodiniaSuite());
    checkSuite(workloads::specSuite());
}
