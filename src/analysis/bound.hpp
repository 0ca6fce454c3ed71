/**
 * @file
 * Static performance-bound model (diag-lint pass 6, `diag-bound`).
 *
 * DiAG discovers its schedule at run time from program order plus
 * register-lane availability (paper §4), which makes that schedule
 * statically computable: this pass re-runs the activation engine's
 * timing rules over the binary with every nondeterministic delay
 * (cache misses, bus contention, occupancy floors) replaced by its
 * *minimum*, yielding
 *
 *  - a per-basic-block lane critical path (a provable lower bound on
 *    the block's execution time),
 *  - a per-resident-loop iteration-period estimate under datapath
 *    reuse (steady-state II of the re-activated body),
 *  - a per-SIMT-region model: pipeline-fill lower bound, the
 *    initiation-interval floor max(launch interval, resource II /
 *    replicas), and a bottleneck attribution,
 *  - a whole-program cycle lower bound, assembled from measured
 *    region entry/thread counts by the validation harness.
 *
 * Every component is *optimistic* with respect to the simulator, so
 * "measured < bound" proves a simulator timing bug and "measured >>
 * bound" flags a lost optimization; `--validate` checks both.
 */
#ifndef DIAG_ANALYSIS_BOUND_HPP
#define DIAG_ANALYSIS_BOUND_HPP

#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/diagnostic.hpp"
#include "analysis/memdep.hpp"

namespace diag::analysis
{

struct LintOptions;

/**
 * Timing parameters of the bound model: the subset of DiagConfig and
 * the memory hierarchy the static schedule depends on. Defaults match
 * the F4C* presets; the harness fills them from a live DiagConfig.
 */
struct BoundParams
{
    unsigned segment_size = 8;      //!< lane buffer every N PEs
    Cycle inter_cluster_latch = 1;  //!< lane latch between clusters
    Cycle mem_lane_latency = 1;     //!< store-to-load forwarding hit
    Cycle line_buffer_latency = 2;  //!< cluster last-line buffer hit
    Cycle l1d_hit_latency = 4;      //!< banked L1D hit
    Cycle l1i_hit_latency = 2;      //!< L1I hit (region line loads)
    Cycle bus_iline_transfer = 1;   //!< I-line delivery over the bus
    Cycle decode_latency = 1;       //!< cluster decode after line load
    Cycle squash_resteer = 1;       //!< redirect-to-reenable delay
    Cycle lsu_issue_occupancy = 1;  //!< LSU port occupancy per load
    unsigned mem_lane_entries = 16; //!< forwarding CAM entries
    unsigned line_buf_entries = 4;  //!< cluster line-buffer entries
    unsigned l1d_line_bytes = 64;   //!< data line size (buffer grain)
    unsigned l1d_banks = 4;         //!< independently busy L1D banks
    Cycle l1d_bank_occupancy = 1;   //!< bank hold time per access
};

/** Lane critical path of one basic block (optimistic schedule). */
struct BlockBound
{
    Addr first = 0;
    Addr last = 0;
    unsigned insts = 0;
    Cycle crit_lb = 0;  //!< entry-to-retire lower bound, cycles
};

/** Steady-state model of one resident backward-branch loop. */
struct LoopBound
{
    Addr head = 0;       //!< branch target (loop entry)
    Addr tail = 0;       //!< the backward branch
    unsigned insts = 0;
    unsigned lines = 0;
    bool resident = false;      //!< fits the ring: datapath reuse
    bool straightline = false;  //!< body has no internal control flow
    /** Predicted steady-state cycles per iteration under reuse
     *  (recurrence through the lanes + serial per-PE occupancy);
     *  0 when not modelled (non-resident or branchy body). */
    double iter_pred = 0;
};

/** Static schedule model of one pipelinable simt region. */
struct RegionBound
{
    Addr simt_s_pc = 0;
    Addr simt_e_pc = 0;
    unsigned body_insts = 0;  //!< simt_s+4 .. simt_e inclusive
    unsigned lines = 0;       //!< I-lines (pipeline stages)
    unsigned max_replicas = 1;//!< ring capacity / lines
    Cycle interval = 1;       //!< simt_s launch interval operand
    /** Provable per-entry fill bound: first launch to last-thread
     *  exit-resolve plus the trailing latch, at minimum latencies. */
    Cycle fill_lb = 0;
    double fill_pred = 0;     //!< predicted per-entry fill (same span)
    /** Provable steady-state cycles/thread: the launch cadence or the
     *  memory-order gate recurrence, whichever is larger (straight-
     *  line bodies only; branchy bodies fall back to the interval). */
    double ii_lb = 1;
    /** Predicted cycles/thread from the pipeline emulation with the
     *  store-address gate and expected load service levels. */
    double ii_gate = 1;
    /** Per-entry replica line-load cost: replicas beyond the first
     *  reload their stage lines over the serialized bus every entry
     *  (Ring::runSimtPipeline evicts them at region end). */
    double setup_per_line = 0;
    double setup_fixed = 0;   //!< fetch+bus+decode tail of that burst
    double resource_ii = 1;   //!< per-replica II floor
    double lsu_ii = 0;        //!< loads/line * LSU occupancy
    double unpip_ii = 0;      //!< unpipelined div/sqrt occupancy
    /** L1D bank-bandwidth floor, shared by all replicas: stores write
     *  back through the banks unconditionally, and loads join them
     *  when their cluster's line buffer thrashes (more distinct line
     *  streams than buffer entries). */
    double bank_ii = 0;
    bool straightline = true; //!< no forward branches in the body

    /** The predicted schedule for given entry and thread counts: the
     *  fill, steady-state and replica-setup terms predict() sums, and
     *  the replica count and interval behind them. */
    struct Terms
    {
        unsigned replicas = 1;  //!< replicas the ring would commit
        double ii = 0;          //!< steady-state initiation interval
        double entry_setup = 0; //!< replica line reload per entry
        double fill = 0;        //!< entries * fill_pred
        double steady = 0;      //!< (threads - entries) * ii
        double setup = 0;       //!< entries * entry_setup
    };
    Terms terms(double threads, double entries) const;
    /** Provable lower bound on the summed region cycles, given the
     *  measured entry and thread counts. */
    double lowerBound(double threads, double entries) const;
    /** Predicted summed region cycles for the same counts. */
    double predict(double threads, double entries) const;
    /** Dominant limiter of the predicted schedule: "recurrence",
     *  "memory-order", "memory-bandwidth", "memory-lane", "compute",
     *  or "cluster-fit". */
    const char *bottleneck(double threads, double entries) const;
};

/** Everything the bound pass derives from one program. */
struct BoundResult
{
    std::vector<BlockBound> blocks;
    std::vector<LoopBound> loops;
    std::vector<RegionBound> regions;
};

/**
 * Pass 6: compute the static schedule model. Appends performance
 * notes to @p report when given (regions whose resource floor exceeds
 * their launch interval even at full replication).
 */
BoundResult analyzeBound(const Cfg &cfg, const Program &prog,
                         const MemDepResult &md,
                         const LintOptions &opt,
                         LintResult *report = nullptr);

/** Render a BoundResult as a JSON document (deterministic order). */
std::string renderBoundJson(const BoundResult &bound);

} // namespace diag::analysis

#endif // DIAG_ANALYSIS_BOUND_HPP
