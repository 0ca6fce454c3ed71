/**
 * @file
 * Figure 10b reproduction: SPEC CPU2017-class multithreaded relative
 * performance with and without SIMT pipelining vs the 12-core OoO.
 */
#include "fig_common.hpp"
#include "harness/cli.hpp"

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    diag::harness::ArgParser ap("bench_fig10b_spec_mt");
    switch (ap.jobsFlag(&jobs).parse(argc, argv)) {
    case diag::harness::ArgParser::Status::Help:
        return 0;
    case diag::harness::ArgParser::Status::Usage:
        return 1;
    case diag::harness::ArgParser::Status::Run:
        break;
    }
    diag::bench::relPerfMultiThread(
        "Fig 10b: SPEC multithreaded relative performance "
        "(12-core baseline = 1.0)",
        diag::workloads::specSuite(), 0.97, 1.15, jobs);
    return 0;
}
