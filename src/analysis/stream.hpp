/**
 * @file
 * Static stream & locality analysis (`diag-stream`).
 *
 * The paper's stall breakdown puts memory at 73.6 % of lost cycles
 * (§7.2); a stream prefetch/access layer needs to know, *statically*,
 * which address streams a region generates. This pass derives a
 * symbolic address map per memory instruction with the analyzers'
 * shared lane algebra (symval.hpp), seeding its thread-id axis and
 * reading its load-derivation depth, and resolves the map's free
 * parameters (the simt step, trip count, and address phase) against
 * the diag-verify abstract-interpretation fixpoint. Each access is
 * classified as
 *
 *  - **affine**: `base + i*stride + tid*tstride` with the base value
 *    fixed for the whole region entry (prefetchable by a stride
 *    engine when the stride is proven),
 *  - **indirect**: the address is one load away from affine — an
 *    affine index stream feeding a gather/scatter,
 *  - **pointer-chase**: two or more loads deep, or a loop-carried
 *    `p = load(p + c)` recurrence (prefetch-hostile serial chain),
 *  - **unknown**: the base is minted in-scope by an operation the
 *    value numbering does not model.
 *
 * On top of the classification the pass predicts L1D bank-conflict
 * pressure under the cache model's word-interleaved mapping
 * (`bank = (addr/8) & (banks-1)`), per-stream footprint and
 * reuse-per-line estimates, and a prefetchability verdict. Every
 * affine verdict — region- and loop-scope alike — is differentially
 * validated against recorded address sequences by
 * `harness::validateStream` (DESIGN.md §14).
 */
#ifndef DIAG_ANALYSIS_STREAM_HPP
#define DIAG_ANALYSIS_STREAM_HPP

#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "asm/program.hpp"

namespace diag::analysis
{

struct LintOptions;

/** Classification lattice of one memory access's address stream. */
enum class StreamKind : u8
{
    Affine,       //!< base + i*stride (+ tid*tstride), base invariant
    Indirect,     //!< gather/scatter indexed by an affine load stream
    PointerChase, //!< serial load-to-address dependence chain
    Unknown,      //!< opaque base minted inside the scope
};

/** Printable name of a stream kind. */
const char *streamKindName(StreamKind k);

/** How a prefetcher could cover the stream. */
enum class PrefetchClass : u8
{
    None,   //!< not prefetchable (chase/unknown or unproven stride)
    Scalar, //!< one address, resident after the first access
    Stride, //!< proven constant stride: classic stride prefetch
    Index,  //!< indirect over a proven-stride index stream
};

/** Printable name of a prefetch class. */
const char *prefetchClassName(PrefetchClass p);

/** One memory instruction's address stream within its scope. */
struct StreamInfo
{
    Addr pc = 0;
    bool is_store = false;
    u8 size = 0;            //!< access bytes
    StreamKind kind = StreamKind::Unknown;

    /**
     * Affine map coefficients. `rc_coeff` multiplies the scope's
     * induction value (the rc lane for simt regions, the iteration
     * counter for serial loops); `tid_coeff` multiplies the a0 lane
     * as the region entered it (the ABI thread-id register unless the
     * kernel clobbered it). `stride` is the proven byte delta between
     * consecutive iterations/threads — for simt regions that is
     * rc_coeff times the proven step constant.
     */
    i64 rc_coeff = 0;
    i64 tid_coeff = 0;
    bool stride_known = false;
    i64 stride = 0;

    /** Indirect/PointerChase: the load producing the address input. */
    Addr feeder_pc = 0;

    /** Footprint/locality estimates (affine with proven stride+trips). */
    bool footprint_known = false;
    u64 footprint_bytes = 0;
    u64 lines_touched = 0;     //!< distinct L1D lines spanned
    double reuse_per_line = 0; //!< accesses per distinct line

    /**
     * L1D banking verdicts under `bank = (addr/8) & (banks-1)`.
     * `bank_conflict_free` is only set when *provable*: no two
     * accesses of the stream close enough to hold a bank concurrently
     * — any distance up to the bank-occupancy in-flight window, with
     * accesses launching at least a cycle apart — can hit the same
     * bank from different 8-byte words, for any base alignment.
     * `bank_serialized` is the proven worst case: every distinct-word
     * access lands on one bank (stride a multiple of 8*banks).
     */
    bool bank_conflict_free = false;
    bool bank_serialized = false;

    PrefetchClass prefetch = PrefetchClass::None;
};

/** Stream table of one pipelinable simt_s/simt_e region. */
struct RegionStreams
{
    Addr simt_s_pc = 0;
    Addr simt_e_pc = 0;
    /**
     * No control flow inside the body: every access executes exactly
     * once per pipelined thread, so an affine stream's observed
     * sequence must equal the predicted map point for point.
     */
    bool straightline = true;
    /** simt_s operands resolved by abstract interpretation. */
    bool step_known = false;
    i64 step = 0;
    bool trips_known = false;
    u64 trips = 0;
    /** Classification tallies over `streams`. */
    unsigned affine = 0;
    unsigned indirect = 0;
    unsigned chase = 0;
    unsigned unknown = 0;
    std::vector<StreamInfo> streams; //!< program order
};

/** Stream table of one serial single-block backward-branch loop. */
struct LoopStreams
{
    Addr head = 0; //!< loop entry (branch target)
    Addr tail = 0; //!< the backward branch
    std::vector<StreamInfo> streams; //!< program order
};

/** Whole-program stream analysis. */
struct StreamResult
{
    std::vector<RegionStreams> regions; //!< by simt_s pc
    std::vector<LoopStreams> loops;     //!< by head pc
};

/**
 * Run the stream classification over @p prog, appending diagnostics
 * (pass "stream") to @p report: a per-region summary note, warnings
 * for proven bank-serialized streams, and notes for pointer-chase /
 * indirect / unclassified streams. Kept separate from analyzeProgram
 * so diag-lint/diag-bound output (and their goldens) is unchanged.
 */
StreamResult analyzeStreams(const Program &prog, const LintOptions &opt,
                            LintResult &report);

/** Deterministic fixed-format table, one line per stream. */
std::string renderStreamText(const StreamResult &r);

/** Deterministic JSON document for goldens and tooling. */
std::string renderStreamJson(const StreamResult &r);

} // namespace diag::analysis

#endif // DIAG_ANALYSIS_STREAM_HPP
