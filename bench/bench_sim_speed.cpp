/**
 * @file
 * Google-benchmark microbenchmarks of the simulators themselves:
 * host-side throughput of the DiAG model, the OoO model, and the
 * golden interpreter (simulated instructions per host second).
 */
#include <benchmark/benchmark.h>

// Throughput numbers from an unoptimized build measure the compiler,
// not the simulator, and have been committed as baselines by mistake
// before. Refuse to compile unless the caller explicitly opts in.
#if !defined(__OPTIMIZE__) && !defined(DIAG_ALLOW_DEBUG_BENCH)
#error "bench_sim_speed requires an optimized build: configure with \
-DCMAKE_BUILD_TYPE=Release (or pass -DDIAG_ALLOW_DEBUG_BENCH=ON to \
measure a debug build anyway)"
#endif

#include "asm/assembler.hpp"
#include "diag/processor.hpp"
#include "ooo/processor.hpp"
#include "sim/golden.hpp"

using namespace diag;

namespace
{

const char *kKernel = R"(
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
)";

void
BM_GoldenSim(benchmark::State &state)
{
    const Program p = assembler::assemble(kKernel);
    u64 insts = 0;
    for (auto _ : state) {
        sim::GoldenSim sim(p);
        const sim::RunResult r = sim.run();
        insts += r.inst_count;
    }
    state.counters["sim_inst_per_s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GoldenSim);

void
BM_DiagModel(benchmark::State &state)
{
    const Program p = assembler::assemble(kKernel);
    u64 insts = 0;
    for (auto _ : state) {
        core::DiagProcessor proc(core::DiagConfig::f4c32());
        const sim::RunStats rs = proc.run(p);
        insts += rs.instructions;
    }
    state.counters["sim_inst_per_s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DiagModel);

void
BM_OooModel(benchmark::State &state)
{
    const Program p = assembler::assemble(kKernel);
    u64 insts = 0;
    for (auto _ : state) {
        ooo::OooProcessor proc(ooo::OooConfig::baseline8());
        const sim::RunStats rs = proc.run(p);
        insts += rs.instructions;
    }
    state.counters["sim_inst_per_s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OooModel);

void
BM_Assembler(benchmark::State &state)
{
    for (auto _ : state) {
        const Program p = assembler::assemble(kKernel);
        benchmark::DoNotOptimize(p.entry);
    }
}
BENCHMARK(BM_Assembler);

} // namespace

// BENCHMARK_MAIN() plus context the stock JSON lacks: the benchmark
// library's own "library_build_type" reports how *libbenchmark* was
// compiled, so record whether the simulator under test was optimized
// and which build type produced it.
int
main(int argc, char **argv)
{
#ifdef __OPTIMIZE__
    benchmark::AddCustomContext("diag_optimized", "true");
#else
    benchmark::AddCustomContext("diag_optimized", "false");
#endif
#ifdef DIAG_BENCH_BUILD_TYPE
    benchmark::AddCustomContext("diag_build_type",
                                DIAG_BENCH_BUILD_TYPE);
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
