/**
 * @file
 * Figure 9a reproduction: Rodinia single-thread relative performance
 * of DiAG (32 / 256 / 512 PEs) against the 8-issue OoO baseline.
 */
#include "fig_common.hpp"

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    if (const auto rc = diag::bench::parseJobs("bench_fig9a_rodinia_st",
                                               argc, argv, &jobs))
        return *rc;
    diag::bench::relPerfSingleThread(
        "Fig 9a: Rodinia single-thread relative performance "
        "(baseline = 1.0)",
        "fig9a", jobs);
    return 0;
}
