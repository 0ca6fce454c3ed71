/**
 * @file
 * Timing digests of both engines (DESIGN.md §15). Each case runs one
 * fixed input — a bundled workload (F4C32 serial and simt, F4C2
 * serial, the ablation benches' no-reuse, no-memory-lane and
 * stride-prefetch cells, and every Fig 9a/9b/10a/10b/12 cell), a
 * seeded fuzz program on DiAG or on the OoO baseline, a handwritten
 * loop kernel on DiAG F4C32 and on the 1-core OoO baseline, or the nn
 * workload under the tracer, the address recorder or a fault
 * campaign — and compares a one-line digest
 * (cycles, instructions and FNV-1a hashes of the counter dump, the
 * final architectural state or the rendered bytes) against
 * tests/golden/timing_digests.json. A serial F4C32 or F4C2 run is a
 * paper cell and shares its `cell/` row.
 *
 * The SkipIdle* DiAG rows were recorded while the dense per-PE
 * stepping path and the skip-idle fast paths still ran side by side
 * and agreed bit for bit on every one of these inputs, so a passing
 * case means today's single path still reproduces the dense reference
 * exactly. The `kernel-ooo/` rows and the KernelDigests kernel came
 * later and pin the engines as they were then. The AblationDigests rows pin the counters of configurations no
 * other golden runs, and the EngineWorkload checks pin each of the 130
 * cells of harness::paperCells() under `cell/<cell name>`, five checks
 * per workload by engine and mode. After an intended model change,
 * regenerate with tools/update_goldens.sh (which runs every case in
 * this file with DIAG_UPDATE_DIGESTS=1).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "diag/processor.hpp"
#include "fault/campaign.hpp"
#include "harness/runner.hpp"
#include "ooo/processor.hpp"
#include "serve/hash.hpp"
#include "sim/fuzz.hpp"
#include "trace/export.hpp"
#include "workloads/workload.hpp"

using namespace diag;
using namespace diag::core;

namespace
{

const std::string kGolden =
    std::string(DIAG_GOLDEN_DIR) + "/timing_digests.json";

std::string
hex(u64 h)
{
    return detail::vformat("%016llx", static_cast<unsigned long long>(h));
}

/** The snapshot's lines, `"key": {digest},`, keyed by case. */
std::map<std::string, std::string>
readDigests()
{
    std::map<std::string, std::string> out;
    std::ifstream in(kGolden);
    std::string line;
    while (std::getline(in, line)) {
        const size_t q = line.find("\": ");
        if (line.empty() || line[0] != '"' || q == std::string::npos)
            continue;
        std::string value = line.substr(q + 3);
        if (!value.empty() && value.back() == ',')
            value.pop_back();
        out[line.substr(1, q - 1)] = value;
    }
    return out;
}

/** Compare @p digest against the snapshot's @p key entry, or record
 *  it there when DIAG_UPDATE_DIGESTS is set (run serially). */
void
checkDigest(const std::string &key, const std::string &digest)
{
    std::map<std::string, std::string> all = readDigests();
    if (std::getenv("DIAG_UPDATE_DIGESTS")) {
        all[key] = digest;
        std::ofstream os(kGolden);
        os << "{\n";
        const char *sep = "";
        for (const auto &[k, v] : all) {
            os << sep << '"' << k << "\": " << v;
            sep = ",\n";
        }
        os << "\n}\n";
        return;
    }
    const auto it = all.find(key);
    ASSERT_NE(it, all.end())
        << key << " missing from " << kGolden
        << "; run tools/update_goldens.sh <build-dir>";
    EXPECT_EQ(digest, it->second)
        << key << " diverged from " << kGolden
        << "; if the change is intentional, run "
           "tools/update_goldens.sh <build-dir> and commit the diff";
}

/** `"cycles": .., "instructions": .., "stats": <hash of dumpJson>`. */
std::string
runFields(const sim::RunStats &rs)
{
    std::ostringstream os;
    rs.counters.dumpJson(os);
    return detail::vformat(
        "\"cycles\": %llu, \"instructions\": %llu, \"stats\": \"%s\"",
        static_cast<unsigned long long>(rs.cycles),
        static_cast<unsigned long long>(rs.instructions),
        hex(serve::fnv1a(os.str())).c_str());
}

/** Hash of how the run stopped. */
u64
stopHash(const sim::RunStats &rs)
{
    const u64 h = serve::fnv1a(rs.stop_reason);
    return serve::fnv1a64((rs.halted ? 1u : 0u) | (rs.timed_out ? 2u : 0u) |
                              (rs.faulted ? 4u : 0u) |
                              (rs.aborted ? 8u : 0u),
                          h);
}

/** stopHash() extended with the final registers. */
template <class Proc>
u64
stateHash(const sim::RunStats &rs, const Proc &proc)
{
    u64 h = stopHash(rs);
    for (unsigned r = 1; r < isa::kNumRegs; ++r)
        h = serve::fnv1a64(proc.finalReg(0, static_cast<isa::RegId>(r)),
                           h);
    return h;
}

std::string
stateDigest(const sim::RunStats &rs, u64 state)
{
    return "{" + runFields(rs) + ", \"state\": \"" + hex(state) + "\"}";
}

} // namespace

// --- Workload sweep: every bundled workload, both variants. --------

namespace
{

/** Compare @p run, which must pass its output check, against the
 *  @p key entry. */
void
runDigest(const std::string &key, const harness::EngineRun &run)
{
    EXPECT_TRUE(run.checked) << key;
    checkDigest(key, "{" + runFields(run.stats) + ", \"stop\": \"" +
                         hex(stopHash(run.stats)) + "\"}");
}

/** Run @p w on @p cfg; compare against the `<tag>/<name>` entry. */
void
workloadOne(const std::string &tag, const workloads::Workload &w,
            const DiagConfig &cfg, bool use_simt)
{
    harness::RunSpec spec;
    spec.use_simt = use_simt;
    runDigest(tag + "/" + w.name, harness::runOnDiag(cfg, w, spec));
}

/** A serial run is a single-thread paper cell: compare it against
 *  the `cell/<name>/<config>/t1` entry. */
void
serialOne(const workloads::Workload &w, const DiagConfig &cfg)
{
    runDigest("cell/" + w.name + "/" + cfg.name + "/t1",
              harness::runOnDiag(cfg, w, harness::RunSpec{}));
}

} // namespace

TEST(SkipIdleEquivalence, AllBundledWorkloadsMatchDense)
{
    const DiagConfig cfg = DiagConfig::f4c32();
    for (const auto &suite :
         {workloads::rodiniaSuite(), workloads::specSuite()}) {
        for (const workloads::Workload &w : suite) {
            serialOne(w, cfg);
            if (!w.asm_simt.empty())
                workloadOne("workload-f4c32-simt", w, cfg, true);
        }
    }
}

TEST(SkipIdleEquivalence, SmallConfigMatchesDense)
{
    // The two-cluster machine exercises cluster-boundary crossings and
    // ring wrap far more often per instruction.
    const DiagConfig cfg = DiagConfig::f4c2();
    for (const workloads::Workload &w : workloads::rodiniaSuite())
        serialOne(w, cfg);
}

// --- Ablation cells: the off/on side of each ablation bench. --------

TEST(AblationDigests, NoReuseOnRodinia)
{
    // bench_ablation_reuse: every Rodinia workload without reuse.
    DiagConfig cfg = DiagConfig::f4c32();
    cfg.reuse_enabled = false;
    for (const workloads::Workload &w : workloads::rodiniaSuite())
        workloadOne("ablation-noreuse", w, cfg, false);
}

TEST(AblationDigests, NoMemLanes)
{
    // bench_ablation_memlanes' workloads without memory lanes.
    DiagConfig cfg = DiagConfig::f4c32();
    cfg.mem_lanes_enabled = false;
    for (const char *name :
         {"nw", "pathfinder", "lud", "xz", "bfs", "hotspot"})
        workloadOne("ablation-nomemlanes", workloads::findWorkload(name),
                    cfg, false);
}

TEST(AblationDigests, StridePrefetch)
{
    // bench_ablation_prefetch's workloads with the stride prefetcher.
    DiagConfig cfg = DiagConfig::f4c32();
    cfg.stride_prefetch_enabled = true;
    for (const char *name : {"backprop", "lbm", "srad", "imagick", "mcf",
                             "bfs", "xz", "kmeans"})
        workloadOne("ablation-prefetch", workloads::findWorkload(name),
                    cfg, false);
}

// --- Paper cells: every cell of Figs 9a/9b/10a/10b/12. -------------

namespace
{

/** How an arrangement runs a workload. */
enum class Mode
{
    Serial,
    MultiThread,
    Simt
};

/**
 * Run @p workload's paper-table cells that run on DiAG (@p diag) or
 * the OoO baseline in @p mode. Each must pass its output check, spend
 * energy and match its `cell/<cell name>` digest; a 1-core OoO run's
 * IPC lies in (0.05, 8) and a simt run pipelines threads.
 */
void
cellsOne(const std::string &workload, bool diag, Mode mode)
{
    bool any = false;
    for (const harness::PaperCell &c : harness::paperCells().cells) {
        const harness::RunSpec &spec = c.run.spec;
        const Mode m = spec.use_simt      ? Mode::Simt
                       : spec.threads > 1 ? Mode::MultiThread
                                          : Mode::Serial;
        if (c.run.w->name != workload || m != mode ||
            std::holds_alternative<DiagConfig>(c.run.cfg) != diag)
            continue;
        any = true;
        const harness::EngineRun run = harness::runMatrix({c.run}, 1)[0];
        EXPECT_GT(run.energy.totalPj(), 0.0) << c.name;
        if (!diag && mode == Mode::Serial) {
            EXPECT_GT(run.stats.ipc(), 0.05) << c.name;
            EXPECT_LT(run.stats.ipc(), 8.0) << c.name;  // commit width
        }
        if (mode == Mode::Simt) {
            EXPECT_GT(run.stats.counters.get("simt_threads"), 0.0)
                << c.name;
        }
        runDigest("cell/" + c.name, run);
    }
    if (!any)
        GTEST_SKIP() << workload << " has no such paper cell";
}

/** The table's workload names; they also name the ctest cases. */
std::vector<std::string>
tableWorkloads()
{
    std::vector<std::string> names;
    for (const workloads::Workload &w : harness::paperCells().workloads)
        names.push_back(w.name);
    return names;
}

} // namespace

class EngineWorkload : public ::testing::TestWithParam<std::string>
{};

TEST_P(EngineWorkload, DiagSerialChecksOut)
{
    // Fig 9a/10a's 32-, 256- and 512-PE columns; Fig 12's single thread.
    cellsOne(GetParam(), true, Mode::Serial);
}

TEST_P(EngineWorkload, OooSerialChecksOut)
{
    cellsOne(GetParam(), false, Mode::Serial);  // 1-core baseline
}

TEST_P(EngineWorkload, DiagMultiThreadChecksOut)
{
    cellsOne(GetParam(), true, Mode::MultiThread);  // 16x2 rings
}

TEST_P(EngineWorkload, OooMultiThreadChecksOut)
{
    cellsOne(GetParam(), false, Mode::MultiThread);  // 12 cores
}

TEST_P(EngineWorkload, DiagSimtChecksOut)
{
    cellsOne(GetParam(), true, Mode::Simt);  // 8x4 rings, simt
}

INSTANTIATE_TEST_SUITE_P(All, EngineWorkload,
                         ::testing::ValuesIn(tableWorkloads()),
                         [](const auto &info) { return info.param; });

// --- Fuzz corpus: seeded random programs, all generator modes. -----

namespace
{

/** Run one generated program on @p proc (DiAG F4C16 or the 1-core
 *  OoO baseline); compare against the `<tag>/<seed>` entry. */
template <class Proc>
void
fuzzOne(const std::string &tag, const typename Proc::Config &cfg, u64 seed,
        bool use_fp, bool use_simt)
{
    sim::FuzzOptions fo;
    fo.seed = seed;
    fo.use_fp = use_fp;
    fo.use_simt = use_simt;
    const sim::FuzzProgram fp = sim::generateFuzzProgramEx(fo);
    const Program p = assembler::assemble(fp.source);
    Proc proc(cfg);
    const sim::RunStats rs = proc.run(p);
    u64 state = stateHash(rs, proc);
    const Addr buf = p.symbol("buf");
    for (Addr off = 0; off < 1024; off += 4)
        state = serve::fnv1a64(proc.memory().read32(buf + off), state);
    checkDigest(tag + "/" + std::to_string(seed), stateDigest(rs, state));
}

void
fuzzOne(const std::string &mode, u64 seed, bool use_fp, bool use_simt)
{
    fuzzOne<DiagProcessor>("fuzz-" + mode, DiagConfig::f4c16(), seed,
                           use_fp, use_simt);
}

} // namespace

class SkipIdleFuzz : public ::testing::TestWithParam<u64>
{};

TEST_P(SkipIdleFuzz, IntegerProgramsMatchDense)
{
    fuzzOne("int", GetParam(), false, false);
}

TEST_P(SkipIdleFuzz, FpProgramsMatchDense)
{
    fuzzOne("fp", GetParam() + 1000, true, false);
}

TEST_P(SkipIdleFuzz, SimtProgramsMatchDense)
{
    fuzzOne("simt", GetParam() + 2000, false, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkipIdleFuzz,
                         ::testing::Range<u64>(1, 13));

// The same corpus on the 1-core OoO baseline: calls and returns
// (RAS/BTB), FP, mul/div and scalar simt_e pinned to the cycle.

namespace
{

void
oooFuzzOne(const std::string &mode, u64 seed, bool use_fp, bool use_simt)
{
    fuzzOne<ooo::OooProcessor>("fuzz-ooo-" + mode,
                               ooo::OooConfig::baseline8(), seed, use_fp,
                               use_simt);
}

} // namespace

class OooFuzz : public ::testing::TestWithParam<u64>
{};

TEST_P(OooFuzz, IntegerPrograms)
{
    oooFuzzOne("int", GetParam(), false, false);
}

TEST_P(OooFuzz, FpPrograms)
{
    oooFuzzOne("fp", GetParam() + 1000, true, false);
}

TEST_P(OooFuzz, SimtPrograms)
{
    oooFuzzOne("simt", GetParam() + 2000, false, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OooFuzz, ::testing::Range<u64>(1, 13));

// --- Handwritten loop kernels. --------------------------------------

namespace
{

/** Run one kernel on @p proc; compare against the `<tag>/<key>` row. */
template <class Proc>
void
kernelOn(const std::string &tag, const typename Proc::Config &cfg,
         const std::string &key, const Program &p)
{
    Proc proc(cfg);
    const sim::RunStats rs = proc.run(p);
    ASSERT_TRUE(rs.halted) << tag << "/" << key;
    checkDigest(tag + "/" + key, stateDigest(rs, stateHash(rs, proc)));
}

/** A kernel on DiAG F4C32 (`kernel/`) and on the 1-core OoO
 *  baseline (`kernel-ooo/`). */
void
kernel(const std::string &key, const std::string &src)
{
    const Program p = assembler::assemble(src);
    kernelOn<DiagProcessor>("kernel", DiagConfig::f4c32(), key, p);
    kernelOn<ooo::OooProcessor>("kernel-ooo", ooo::OooConfig::baseline8(),
                                key, p);
}

} // namespace

TEST(SkipIdleEquivalence, SteadyAluLoop)
{
    // A long counted loop, pure ALU: the steady state of a resident
    // loop with no memory, FP or simt traffic.
    kernel("steady_alu", R"(
        _start:
            li a0, 0
            li a1, 2000
        loop:
            addi t0, a0, 3
            slli t1, t0, 2
            xor t2, t1, a0
            and t3, t2, t1
            addi a0, a0, 1
            bne a0, a1, loop
            ebreak
    )");
}

TEST(SkipIdleEquivalence, ShortTripLoops)
{
    // One-, two-, and three-iteration loops: the exit path is taken
    // before any loop could reach a steady state.
    for (int n : {1, 2, 3}) {
        kernel("short_trip_" + std::to_string(n), R"(
        _start:
            li a0, 0
            li a1, )" + std::to_string(n) +
                                                      R"(
        loop:
            addi t0, a0, 7
            addi a0, a0, 1
            bne a0, a1, loop
            ebreak
        )");
    }
}

TEST(SkipIdleEquivalence, NestedLoopsMatchDense)
{
    // The inner loop re-enters once per outer iteration.
    kernel("nested", R"(
        _start:
            li s0, 0
            li s1, 17
        outer:
            li a0, 0
            li a1, 23
        inner:
            add t0, a0, s0
            addi a0, a0, 1
            bne a0, a1, inner
            addi s0, s0, 1
            bne s0, s1, outer
            ebreak
    )");
}

TEST(SkipIdleEquivalence, MemoryLoopMatchesDense)
{
    // Strided stores then a reduction load loop: cache and bus
    // counters land in the stats hash.
    kernel("memory", R"(
        _start:
            li a0, 0x8000
            li a1, 0
            li a2, 256
        fill:
            sw a1, 0(a0)
            addi a0, a0, 4
            addi a1, a1, 3
            bne a1, a2, fillchk
        fillchk:
            blt a1, a2, fill
            li a0, 0x8000
            li a3, 0
            li a4, 0
        sum:
            lw t0, 0(a0)
            add a3, a3, t0
            addi a0, a0, 4
            addi a4, a4, 1
            blt a4, a2, sum
            ebreak
    )");
}

TEST(SkipIdleEquivalence, DataDependentExitMatchesDense)
{
    // Collatz-style loop: the trip count is not affine in the
    // induction variable.
    kernel("data_dependent_exit", R"(
        _start:
            li a0, 27
            li t2, 1
        loop:
            andi t0, a0, 1
            beq t0, zero, even
            slli t1, a0, 1
            add a0, t1, a0
            addi a0, a0, 1
            jal x0, next
        even:
            srli a0, a0, 1
        next:
            bne a0, t2, loop
            ebreak
    )");
}

TEST(SkipIdleEquivalence, SimtFallbackLoop)
{
    // s0 carries a value across iterations, so the region cannot
    // pipeline and its entry runs the one-shot serial pass from the
    // simt_s. Within one line that pass ends on simt_e's taken branch,
    // or on the ebreak after a single trip; across lines it falls
    // through.
    const auto src = [](int trips, int nops) {
        std::string s = R"(
        _start:
            li a0, 0
            li a1, 1
            li a2, )" + std::to_string(trips) + R"(
            li s0, 0
        head:
            simt_s a0, a1, a2, 1
            add s0, s0, a0
)";
        for (int i = 0; i < nops; ++i)
            s += "            nop\n";
        return s + R"(
            simt_e a0, a2, head
            ebreak
        )";
    };
    kernel("simt_fallback_in_line", src(10, 0));
    kernel("simt_fallback_halt", src(1, 0));
    kernel("simt_fallback_across_lines", src(10, 12));
}

TEST(KernelDigests, CallInCountedLoop)
{
    // A call per outer trip to a helper that divides, multiplies and
    // returns: BTB hits on the `jal` after the first trip, RAS
    // returns, and the unpipelined divider's calendar. Each inner trip
    // of independent ALU work is one fetch group cut by its taken
    // branch, so an outer trip takes longer than the divider's
    // 12-cycle occupancy and the OoO frontend sets its pace: a bubble
    // more on each BTB hit shows up in cycles.
    kernel("call_in_loop", R"(
        _start:
            li a0, 0
            li a1, 100
            li s0, 1000
            li s1, 7
        outer:
            call helper
            li a2, 0
            li a3, 12
        inner:
            addi t0, a2, 1
            xori t1, a2, 5
            slli t2, a2, 2
            addi a2, a2, 1
            bne a2, a3, inner
            addi a0, a0, 1
            bne a0, a1, outer
            ebreak
        helper:
            div t5, s0, s1
            mul t6, t5, s1
            ret
    )");
}

// --- Observers: trace bytes, address log, fault campaign. ----------

TEST(SkipIdleEquivalence, ChromeTraceBytesMatchDense)
{
    const workloads::Workload w = workloads::findWorkload("nn");
    trace::TraceConfig tc;
    harness::RunSpec spec;
    spec.trace = &tc;
    const harness::EngineRun run =
        harness::runOnDiag(DiagConfig::f4c16(), w, spec);
    ASSERT_TRUE(run.trace);
    trace::TraceMeta meta;
    meta.workload = w.name;
    meta.config = "f4c16";
    std::ostringstream os;
    trace::writeChromeTrace(os, *run.trace, meta);
    checkDigest("nn/chrome_trace",
                "{" + runFields(run.stats) + ", \"trace\": \"" +
                    hex(serve::fnv1a(os.str())) + "\"}");
}

TEST(SkipIdleEquivalence, AddrTraceMatchesDense)
{
    const workloads::Workload w = workloads::findWorkload("nn");
    harness::RunSpec spec;
    spec.use_simt = !w.asm_simt.empty();
    spec.record_addrs = true;
    const harness::EngineRun run =
        harness::runOnDiag(DiagConfig::f4c16(), w, spec);
    ASSERT_TRUE(run.addrs);
    const trace::AddrTrace &a = *run.addrs;
    u64 h = serve::kFnvOffset;
    for (const trace::AddrTrace::Region &r : a.regions) {
        for (u64 v : {u64{r.simt_s_pc}, u64{r.rc0}, u64{r.step}, r.trips})
            h = serve::fnv1a64(v, h);
        for (const auto &[pc, addrs] : r.addrs)
            for (u32 ea : addrs)
                h = serve::fnv1a64((u64{pc} << 32) | ea, h);
        for (const auto &[pc, n] : r.counts)
            h = serve::fnv1a64(n, serve::fnv1a64(pc, h));
    }
    for (const auto &[pc, seq] : a.serial_addrs)
        for (const auto &[s, ea] : seq)
            h = serve::fnv1a64((u64{pc} << 32) | ea, serve::fnv1a64(s, h));
    for (const auto &[pc, n] : a.serial_counts)
        h = serve::fnv1a64(n, serve::fnv1a64(pc, h));
    for (const auto &[s, pc] : a.loop_backs)
        h = serve::fnv1a64(pc, serve::fnv1a64(s, h));
    h = serve::fnv1a64(a.loop_back_count, h);
    checkDigest("nn/addr_trace", "{" + runFields(run.stats) +
                                     ", \"addrs\": \"" + hex(h) + "\"}");
}

TEST(SkipIdleEquivalence, FaultCampaignReportMatchesDense)
{
    fault::CampaignSpec spec;
    spec.workload = "nn";
    spec.config = DiagConfig::f4c16();
    spec.seed = 99;
    spec.trials = 12;
    spec.jobs = 1;
    const fault::CampaignReport rep = fault::runCampaign(spec);
    checkDigest(
        "nn/fault_campaign",
        detail::vformat(
            "{\"cycles\": %llu, \"instructions\": %llu, \"report\": "
            "\"%s\"}",
            static_cast<unsigned long long>(rep.baseline_cycles),
            static_cast<unsigned long long>(rep.baseline_insts),
            hex(serve::fnv1a(rep.renderJson())).c_str()));

    fault::CampaignSpec fanned = spec;
    fanned.jobs = 4;
    EXPECT_EQ(rep.renderJson(), fault::runCampaign(fanned).renderJson());
}
