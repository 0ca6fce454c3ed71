/**
 * @file
 * Figure 10b reproduction: SPEC CPU2017-class multithreaded relative
 * performance with and without SIMT pipelining vs the 12-core OoO.
 */
#include "fig_common.hpp"

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    if (const auto rc = diag::bench::parseJobs("bench_fig10b_spec_mt",
                                               argc, argv, &jobs))
        return *rc;
    diag::bench::relPerfMultiThread(
        "Fig 10b: SPEC multithreaded relative performance "
        "(12-core baseline = 1.0)",
        diag::workloads::specSuite(), 0.97, 1.15, jobs);
    return 0;
}
