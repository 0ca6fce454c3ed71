/**
 * @file
 * Simulator cross-validation of the static bound model (`diag-bound
 * --validate`): run a workload on a DiAG configuration, read back the
 * per-region counters the ring records, and compare the measured
 * cycles against the analyzer's provable lower bound and its
 * prediction. "measured < bound" proves a simulator timing bug;
 * "prediction off by more than the slack" flags model drift.
 */
#ifndef DIAG_HARNESS_VALIDATE_HPP
#define DIAG_HARNESS_VALIDATE_HPP

#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "diag/config.hpp"
#include "workloads/workload.hpp"

namespace diag::harness
{

/** Static timing parameters matching a live DiAG configuration. */
analysis::BoundParams boundParamsFrom(const core::DiagConfig &cfg);

/** Analyzer options (geometry + timing + ABI entry) for @p cfg. */
analysis::LintOptions lintOptionsFor(const core::DiagConfig &cfg);

/** Measured-vs-static comparison for one simt region. */
struct RegionCheck
{
    Addr pc = 0;            //!< simt_s address (counter key)
    double entries = 0;     //!< times the pipeline was entered
    double threads = 0;     //!< total threads launched
    double measured = 0;    //!< summed region cycles (simt_s..resume)
    double lower_bound = 0; //!< provable minimum for those counts
    double predicted = 0;   //!< model estimate for those counts
    double err = 0;         //!< |predicted - measured| / measured
    std::string bottleneck; //!< dominant limiter per the model
    bool ok_bound = true;   //!< measured >= lower_bound
    bool ok_pred = true;    //!< err <= slack (regions that ran)
};

/** Whole-workload validation outcome. */
struct ValidationReport
{
    std::string workload;
    std::string config;
    bool simt = false;             //!< simt-annotated variant
    double measured_cycles = 0;    //!< end-to-end run cycles
    double program_lower_bound = 0;
    bool ok_program = true;        //!< measured >= program bound
    std::vector<RegionCheck> regions;

    /** True iff the program bound and every region check hold. */
    bool ok() const;
};

/**
 * Run @p w single-threaded on @p cfg (the simt variant when
 * @p use_simt), then check every simt region's measured cycles
 * against the static model. @p slack is the allowed relative error
 * of the *prediction* (the lower bound allows none).
 */
ValidationReport validateBound(const core::DiagConfig &cfg,
                               const workloads::Workload &w,
                               bool use_simt, double slack = 0.15);

/** Human-readable validation table (one line per region). */
std::string renderValidation(const ValidationReport &r);

/** JSON object for the goldens / CI sweep. */
std::string renderValidationJson(const ValidationReport &r);

} // namespace diag::harness

#endif // DIAG_HARNESS_VALIDATE_HPP
