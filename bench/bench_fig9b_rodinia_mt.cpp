/**
 * @file
 * Figure 9b reproduction: Rodinia multithreaded relative performance —
 * DiAG in the 16x2 ring arrangement, plus SIMT thread pipelining where
 * the benchmark has a pipelineable region, against the 12-core OoO.
 */
#include "fig_common.hpp"
#include "harness/cli.hpp"

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    diag::harness::ArgParser ap("bench_fig9b_rodinia_mt");
    switch (ap.jobsFlag(&jobs).parse(argc, argv)) {
    case diag::harness::ArgParser::Status::Help:
        return 0;
    case diag::harness::ArgParser::Status::Usage:
        return 1;
    case diag::harness::ArgParser::Status::Run:
        break;
    }
    diag::bench::relPerfMultiThread(
        "Fig 9b: Rodinia multithreaded relative performance "
        "(12-core baseline = 1.0)",
        diag::workloads::rodiniaSuite(), 0.95, 1.20, jobs);
    return 0;
}
