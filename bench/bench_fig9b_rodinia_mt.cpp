/**
 * @file
 * Figure 9b reproduction: Rodinia multithreaded relative performance —
 * DiAG in the 16x2 ring arrangement, plus SIMT thread pipelining where
 * the benchmark has a pipelineable region, against the 12-core OoO.
 */
#include "fig_common.hpp"

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    if (const auto rc = diag::bench::parseJobs("bench_fig9b_rodinia_mt",
                                               argc, argv, &jobs))
        return *rc;
    diag::bench::relPerfMultiThread(
        "Fig 9b: Rodinia multithreaded relative performance "
        "(12-core baseline = 1.0)",
        "fig9b", jobs);
    return 0;
}
