/** Lockstep differential tests on the real benchmark kernels: after a
 *  serial run, the DiAG model and the OoO baseline must leave exactly
 *  the same architectural memory state as the golden interpreter —
 *  over the entire touched address space, not just the checked
 *  outputs. */
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "diag/processor.hpp"
#include "harness/runner.hpp"
#include "ooo/processor.hpp"
#include "sim/golden.hpp"
#include "workloads/workload.hpp"

using namespace diag;
using namespace diag::workloads;

namespace
{

/** Full-state comparison of two memory images over resident pages. */
void
expectSameMemory(const SparseMemory &got, const SparseMemory &want,
                 const std::string &label)
{
    u64 mismatches = 0;
    want.forEachPage([&](Addr base) {
        for (Addr off = 0; off < SparseMemory::kPageSize && mismatches < 4;
             off += 4) {
            const u32 g = got.read32(base + off);
            const u32 w = want.read32(base + off);
            if (g != w) {
                ++mismatches;
                ADD_FAILURE() << label << ": mismatch at 0x" << std::hex
                              << base + off << " got " << g << " want "
                              << w;
            }
        }
    });
    EXPECT_EQ(mismatches, 0u) << label;
}

class Lockstep : public ::testing::TestWithParam<std::string>
{};

std::vector<std::string>
lockstepNames()
{
    // A representative cross-section (running all 20 on three engines
    // here would duplicate the EngineWorkload cell checks).
    return {"backprop", "bfs",  "nw",  "kmeans",
            "mcf",      "lbm",  "xz",  "deepsjeng"};
}

} // namespace

TEST_P(Lockstep, DiagAndOooMatchGoldenMemory)
{
    const Workload w = findWorkload(GetParam());
    const Program prog = assembler::assemble(w.asm_serial);

    // All kernels expect a0 = tid, a1 = nthreads.
    sim::GoldenSim gold(prog);
    w.init(gold.memory());
    gold.setReg(10, 0);
    gold.setReg(11, 1);
    const sim::RunResult gr = gold.run(w.max_insts);
    ASSERT_TRUE(gr.halted);

    const std::vector<std::pair<isa::RegId, u32>> init_regs = {
        {isa::RegId{10}, 0}, {isa::RegId{11}, 1}};

    core::DiagProcessor dproc(core::DiagConfig::f4c16());
    dproc.loadProgram(prog);
    w.init(dproc.memory());
    const sim::RunStats drs = dproc.runThreads(
        prog, {core::ThreadSpec{prog.entry, init_regs}}, w.max_insts);
    ASSERT_TRUE(drs.halted);
    ASSERT_EQ(drs.instructions, gr.inst_count) << "diag count";
    expectSameMemory(dproc.memory(), gold.memory(), "diag");

    ooo::OooProcessor oproc(ooo::OooConfig::baseline8());
    oproc.loadProgram(prog);
    w.init(oproc.memory());
    const sim::RunStats ors = oproc.runThreads(
        prog, {ooo::ThreadSpec{prog.entry, init_regs}}, w.max_insts);
    ASSERT_TRUE(ors.halted);
    ASSERT_EQ(ors.instructions, gr.inst_count) << "ooo count";
    expectSameMemory(oproc.memory(), gold.memory(), "ooo");
}

INSTANTIATE_TEST_SUITE_P(Kernels, Lockstep,
                         ::testing::ValuesIn(lockstepNames()),
                         [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// Paper-shape regression guards: the aggregate relationships the
// reproduction stands on (EXPERIMENTS.md) must not silently regress.
// ---------------------------------------------------------------------

namespace
{

/** Series @p label of @p figure on workload @p name alone. */
double
seriesRatio(const std::string &figure, const std::string &label,
            const std::string &name)
{
    const harness::FigureRun f = harness::runFigure(figure, 1, {name});
    for (size_t i = 0; i < f.series.size(); ++i)
        if (f.series[i]->label == label)
            return f.points[i][0].ratio;
    ADD_FAILURE() << "no series " << figure << " " << label;
    return 0.0;
}

} // namespace

TEST(PaperShape, MorePesHelpSerialPrograms)
{
    // Fig 9a/10a shape: the 256-PE config beats the 32-PE config on
    // kernels whose loops exceed two clusters.
    const std::pair<const char *, const char *> cases[] = {
        {"fig9a", "backprop"}, {"fig9a", "srad"}, {"fig10a", "lbm"}};
    for (const auto &[figure, name] : cases)
        EXPECT_GT(seriesRatio(figure, "F4C16", name),
                  1.2 * seriesRatio(figure, "F4C2", name))
            << name;
}

TEST(PaperShape, ComputeBeatsMemoryBoundRelatively)
{
    // DiAG's relative performance on a compute-regular kernel exceeds
    // its relative performance on a control/memory-bound one.
    EXPECT_GT(seriesRatio("fig9a", "F4C32", "kmeans"),
              seriesRatio("fig9a", "F4C32", "bfs"));
}

TEST(PaperShape, SimtPipeliningBeatsPlainMtOnStencils)
{
    // Fig 9b purple-over-blue shape on a pipelineable benchmark.
    EXPECT_GT(seriesRatio("fig9b", "MT+SIMT", "srad"),
              1.5 * seriesRatio("fig9b", "MT", "srad"));
}

TEST(PaperShape, EnergyEfficiencyFavorsDiagOnReusedCompute)
{
    // Fig 12 shape: on a reuse-friendly compute kernel DiAG spends
    // less energy than the baseline.
    EXPECT_GT(seriesRatio("fig12", "single-thread", "kmeans"), 1.0);
}

TEST(PaperShape, MemoryStallsDominateDiagStalls)
{
    // §7.3.2 shape on a memory-heavy benchmark.
    const harness::FigureRun f = harness::runFigure("fig10a", 1, {"mcf"});
    const auto &c = f.runs.at("mcf/F4C32/t1").stats.counters;
    const double mem = c.get("mem_stall_cycles") +
                       c.get("mem_queue_stall_cycles");
    const double ctrl = c.get("ctrl_stall_cycles");
    EXPECT_GT(mem, ctrl);
}
