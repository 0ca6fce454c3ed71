/**
 * @file
 * diag-verify: an abstract-interpretation program verifier over
 * assembled RV32IMF+SIMT programs. On top of the absint fixpoint and
 * the memdep value numbering it decides, per property, one of three
 * verdicts:
 *
 *   Proven   — no execution can violate the property (a proof);
 *   Refuted  — every halting execution violates it (the violating
 *              site lies on every entry->halt path and its operands
 *              are proven violating);
 *   Unknown  — neither could be established.
 *
 * Program-scope properties: control safety (no trap, no control flow
 * the CFG cannot resolve), divide-by-zero freedom, alignment of every
 * memory access, and in-bounds access against the program's declared
 * data map. Region-scope properties (per pipelinable simt region):
 * cross-thread race freedom — strengthening memdep's unknown-alias
 * answer into proven-safe / proven-racy via resolved affine
 * per-thread address maps — and deadlock freedom / activation-token
 * conservation (a proven finite thread count with bounded in-flight
 * activations against the lane-buffer capacity).
 *
 * Soundness is checked differentially: harness::validateVerify runs
 * every verdict against actual DiAG execution and the golden oracle
 * (DESIGN.md §12); a Proven verdict contradicted by an observed event
 * fails CI.
 */
#ifndef DIAG_ANALYSIS_VERIFY_HPP
#define DIAG_ANALYSIS_VERIFY_HPP

#include <string>
#include <utility>
#include <vector>

#include "analysis/absint.hpp"
#include "analysis/lint.hpp"

namespace diag::analysis
{

/** Three-valued outcome of one property. */
enum class Verdict : u8
{
    Proven,
    Refuted,
    Unknown,
};

/** Printable name ("proven", "refuted", "unknown"). */
const char *verdictName(Verdict v);

/** The program-scope properties diag-verify decides, in print order. */
enum class PropertyKind : u8
{
    ControlSafe,    //!< no trap: all control flow statically resolved
    NoDivByZero,    //!< no integer divide/remainder by zero
    NoMisaligned,   //!< every access aligned to its size
    NoOutOfBounds,  //!< every access inside the declared data map
    NumProperties,
};

/** Printable property name ("control-safe", "no-div-by-zero", ...). */
const char *propertyName(PropertyKind k);

/** One decided program-scope property. */
struct PropertyVerdict
{
    PropertyKind kind = PropertyKind::ControlSafe;
    Verdict verdict = Verdict::Unknown;
    /** Refuted/Unknown: the deciding site (0 when program-scope). */
    Addr pc = 0;
    /** One-line proof sketch or counterexample description. */
    std::string detail;
};

/** Verdicts for one pipelinable simt region. */
struct RegionVerify
{
    Addr simt_s_pc = 0;
    Addr simt_e_pc = 0;
    /** Cross-thread race freedom. Proven = every store/access pair
     *  provably disjoint across threads; Refuted = a definite
     *  cross-thread store->load collision. */
    Verdict race = Verdict::Unknown;
    /** Deadlock freedom / token conservation: a proven finite thread
     *  count whose in-flight activations fit the lane buffers. */
    Verdict deadlock = Verdict::Unknown;
    /** Proven thread count (valid when deadlock == Proven). */
    u64 threads = 0;
    /** Static in-flight activation bound (threads concurrently in
     *  the pipeline) and the ring capacity it is compared against. */
    unsigned inflight_bound = 0;
    unsigned capacity = 0;
    /** Access pairs proven disjoint across threads (race == Proven). */
    unsigned pairs_proven = 0;
    std::string race_detail;
    std::string deadlock_detail;
};

/** Verifier configuration. */
struct VerifyOptions
{
    /** Machine geometry / entry conventions (same as the linter). */
    LintOptions lint;
    /**
     * Memory the program may legally touch beyond its own emitted
     * chunks ([base, base+size) pairs); the harness adds
     * workload-initialized input ranges here.
     */
    std::vector<std::pair<Addr, u32>> extra_ranges;
};

/** Everything diag-verify decided about one program. */
struct VerifyResult
{
    /** Findings of the verify pass only (pass name "verify"),
     *  finalized: proven violations are errors. */
    LintResult report;
    /** Program-scope verdicts, in PropertyKind order. */
    std::vector<PropertyVerdict> props;
    /** Per pipelinable simt region, in address order. */
    std::vector<RegionVerify> regions;
    /** The absint fixpoint hit its iteration cap (all Unknown). */
    bool aborted = false;

    const PropertyVerdict &prop(PropertyKind k) const;
    /** No refuted property/region and no error-level finding. */
    bool clean() const;
};

/** Run the verifier over @p prog. */
VerifyResult verifyProgram(const Program &prog,
                           const VerifyOptions &opt);

/** Human-readable report: verdict lines then findings. */
std::string renderVerifyText(const VerifyResult &r);

/** Machine-readable JSON document. */
std::string renderVerifyJson(const VerifyResult &r);

} // namespace diag::analysis

#endif // DIAG_ANALYSIS_VERIFY_HPP
