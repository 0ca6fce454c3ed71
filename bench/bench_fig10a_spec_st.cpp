/**
 * @file
 * Figure 10a reproduction: SPEC CPU2017-class single-thread relative
 * performance of DiAG (32 / 256 / 512 PEs) against the OoO baseline.
 */
#include "fig_common.hpp"

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    if (const auto rc = diag::bench::parseJobs("bench_fig10a_spec_st",
                                               argc, argv, &jobs))
        return *rc;
    diag::bench::relPerfSingleThread(
        "Fig 10a: SPEC single-thread relative performance "
        "(baseline = 1.0)",
        "fig10a", jobs);
    return 0;
}
