/**
 * @file
 * Figure 9a reproduction: Rodinia single-thread relative performance
 * of DiAG (32 / 256 / 512 PEs) against the 8-issue OoO baseline.
 */
#include "fig_common.hpp"
#include "harness/cli.hpp"

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    diag::harness::ArgParser ap("bench_fig9a_rodinia_st");
    switch (ap.jobsFlag(&jobs).parse(argc, argv)) {
    case diag::harness::ArgParser::Status::Help:
        return 0;
    case diag::harness::ArgParser::Status::Usage:
        return 1;
    case diag::harness::ArgParser::Status::Run:
        break;
    }
    diag::bench::relPerfSingleThread(
        "Fig 9a: Rodinia single-thread relative performance "
        "(baseline = 1.0)",
        diag::workloads::rodiniaSuite(), 0.91, 1.12, 1.12, jobs);
    return 0;
}
