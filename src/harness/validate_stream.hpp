/**
 * @file
 * Trace-differential validation of the stream analyzer (`diag-stream
 * --validate`, DESIGN.md §14): run a workload's simt variant with the
 * per-instruction address recorder attached, then replay every region
 * entry's — and every serial single-block loop's — recorded addresses
 * against the statically predicted affine maps. A proven-affine
 * stream whose observed sequence deviates from `addr[k] = addr[0] +
 * k*stride` — or a proven bank-conflict-free stream with an observed
 * same-bank pair inside the bank-occupancy window — is a soundness
 * bug in the analyzer and fails the validation.
 */
#ifndef DIAG_HARNESS_VALIDATE_STREAM_HPP
#define DIAG_HARNESS_VALIDATE_STREAM_HPP

#include <string>
#include <vector>

#include "analysis/stream.hpp"
#include "diag/config.hpp"
#include "workloads/workload.hpp"

namespace diag::harness
{

/** Replay outcome for one static simt region (all entries pooled). */
struct StreamRegionCheck
{
    Addr pc = 0;               //!< simt_s address
    u64 entries = 0;           //!< recorded pipelined entries
    u64 threads = 0;           //!< threads launched across entries
    unsigned affine_streams = 0;   //!< proven-affine streams checked
    unsigned affine_ok = 0;        //!< ... whose replay matched
    unsigned bank_streams = 0;     //!< proven conflict-free checked
    unsigned bank_ok = 0;          //!< ... with zero observed conflicts
    bool launch_ok = true;     //!< recorded step/trips match the proof
    /** One line per deviation (deterministic order). */
    std::vector<std::string> failures;

    bool ok() const { return launch_ok && failures.empty(); }
};

/** Replay outcome for one serial single-block loop. Recorded serial
 *  address sequences are segmented into loop entries at the loop's
 *  taken backward branch; within one entry every proven-affine
 *  stream must advance by exactly its stride per iteration. */
struct StreamLoopCheck
{
    Addr head = 0;             //!< loop entry (branch target)
    Addr tail = 0;             //!< the backward branch
    u64 entries = 0;           //!< observed loop entries (runs)
    u64 iterations = 0;        //!< recorded body executions replayed
    unsigned affine_streams = 0;   //!< proven-affine streams checked
    unsigned affine_ok = 0;        //!< ... whose replay matched
    unsigned bank_streams = 0;     //!< proven conflict-free checked
    unsigned bank_ok = 0;          //!< ... with zero observed conflicts
    /** One line per deviation (deterministic order). */
    std::vector<std::string> failures;

    bool ok() const { return failures.empty(); }
};

/** Whole-workload stream validation. */
struct StreamValidation
{
    std::string workload;
    std::string config;
    u64 regions_entered = 0;  //!< static regions seen at run time
    u64 regions_static = 0;   //!< regions the analyzer classified
    u64 loops_entered = 0;    //!< static loops seen at run time
    u64 loops_static = 0;     //!< loops the analyzer classified
    std::vector<StreamRegionCheck> regions; //!< by simt_s pc
    std::vector<StreamLoopCheck> loops;     //!< by head pc

    /** True iff every entered region and loop replayed clean. */
    bool ok() const;
};

/**
 * Run the simt variant of @p w single-threaded on @p cfg with the
 * address recorder attached, then check every recorded region entry —
 * and every serial single-block loop's recorded iterations — against
 * the analyzer's verdicts. Regions and loops never executed at run
 * time are reported (entries = 0) but cannot fail.
 */
StreamValidation validateStream(const core::DiagConfig &cfg,
                                const workloads::Workload &w);

/** Human-readable validation table (one block per region). */
std::string renderStreamValidation(const StreamValidation &r);

/** JSON object for the goldens / CI sweep. */
std::string renderStreamValidationJson(const StreamValidation &r);

} // namespace diag::harness

#endif // DIAG_HARNESS_VALIDATE_STREAM_HPP
