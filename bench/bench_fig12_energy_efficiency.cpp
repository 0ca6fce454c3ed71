/**
 * @file
 * Figure 12 reproduction: Rodinia energy-efficiency improvement
 * (inverse total energy, baseline = 1.0) for DiAG single-thread,
 * multithread, and multithread with SIMT pipelining.
 *
 * Every engine run is one harness::runMatrix cell (--jobs N, default
 * one host thread per hardware thread); the table is byte-identical
 * for any job count.
 */
#include "fig_common.hpp"

using namespace diag;

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    if (const auto rc = bench::parseJobs("bench_fig12_energy_efficiency",
                                         argc, argv, &jobs))
        return *rc;
    const harness::FigureRun f = bench::printFigure(
        "Fig 12: Rodinia energy efficiency vs baseline (x better)",
        "fig12", {"benchmark", "single-thread", "multi-thread", "MT + SIMT"},
        jobs);
    std::printf("\nPaper-reported averages: %.2fx single-thread, %.2fx "
                "multithreaded,\n%.2fx with SIMT pipelining enabled.\n",
                f.series[0]->paper, f.series[1]->paper,
                f.series[2]->paper);
    return 0;
}
