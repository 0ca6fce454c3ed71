/** Host-parallel harness sweeps: runMatrix must produce results
 *  identical to the serial path for any job count (the figure benches
 *  rely on this for byte-stable tables). */
#include <gtest/gtest.h>

#include "harness/runner.hpp"
#include "workloads/workload.hpp"

using namespace diag;
using namespace diag::harness;

TEST(ParallelHarness, RunMatrixMatchesSerial)
{
    const workloads::Workload lud = workloads::findWorkload("lud");
    const workloads::Workload bfs = workloads::findWorkload("bfs");
    std::vector<MatrixCell> cells;
    for (const workloads::Workload *w : {&lud, &bfs}) {
        cells.push_back({.w = w,
                         .spec = {1, false},
                         .cfg = ooo::OooConfig::baseline8()});
        cells.push_back({.w = w,
                         .spec = {1, false},
                         .cfg = core::DiagConfig::f4c16()});
    }
    const std::vector<EngineRun> serial = runMatrix(cells, 1);
    const std::vector<EngineRun> par = runMatrix(cells, 4);
    ASSERT_EQ(serial.size(), cells.size());
    ASSERT_EQ(par.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        EXPECT_TRUE(serial[i].checked) << "cell " << i;
        EXPECT_TRUE(par[i].checked) << "cell " << i;
        EXPECT_EQ(par[i].stats.cycles, serial[i].stats.cycles)
            << "cell " << i;
        EXPECT_EQ(par[i].stats.instructions,
                  serial[i].stats.instructions)
            << "cell " << i;
        EXPECT_DOUBLE_EQ(par[i].energy.totalPj(),
                         serial[i].energy.totalPj())
            << "cell " << i;
    }
}
