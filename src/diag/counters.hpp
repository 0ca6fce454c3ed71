/**
 * @file
 * The DiAG engine's counters: one fixed set that a DiagProcessor owns
 * and its rings and activation engines bump, plus per-region counts
 * of the simt pipelines. They feed the activity x unit-energy model
 * (DESIGN.md §2) and the §7.3.2 stall breakdown.
 */
#ifndef DIAG_DIAG_COUNTERS_HPP
#define DIAG_DIAG_COUNTERS_HPP

#include <map>

#include "common/counters.hpp"
#include "sim/run_stats.hpp"

namespace diag::core
{

#define DIAG_CORE_COUNTERS(X)                                           \
    /* activation engine: PEs, lanes and the PC lane */                 \
    X(activations) X(pe_exec) X(pe_busy_cycles) X(pe_exec_cycles)       \
    X(fpu_active_cycles) X(lane_writes) X(lane_hops) X(taken_branches)  \
    X(loop_exit_mispredicts) X(ctrl_stall_cycles)                       \
    /* activation engine: cluster LSU, where loads were served */       \
    X(loads) X(stores) X(stride_prefetches) X(mem_queue_stall_cycles)   \
    X(memlane_fwd) X(linebuf_hits) X(l1_loads) X(l2_loads)              \
    X(dram_loads) X(mem_stall_cycles)                                   \
    /* ring control unit: line residency and datapath reuse */          \
    X(reuse_activations) X(reuse_redirects) X(fetch_wait_cycles)        \
    X(other_stall_cycles) X(clusters_used) X(iline_fetches) X(decodes)  \
    X(prefetches)                                                       \
    /* simt thread pipelines, over all regions */                       \
    X(simt_regions) X(simt_threads) X(simt_replicas) X(simt_fallbacks)  \
    /* fault detection and recovery */                                  \
    X(fault_parity_detections) X(fault_lockstep_detections)             \
    X(fault_recoveries) X(clusters_disabled)

/** DiAG activity: the energy model's per-component events and the
 *  stall counters. */
DIAG_COUNTER_SET(DiagCounter, DIAG_CORE_COUNTERS)

#define DIAG_REGION_COUNTERS(X) X(entries) X(threads) X(cycles)

/** One simt region's pipeline launches, threads launched, and
 *  launch-to-resume cycles of the launches that completed. */
DIAG_COUNTER_SET(RegionCounter, DIAG_REGION_COUNTERS)

/** Every counter of one DiagProcessor. */
struct DiagCounters : CounterSet<DiagCounter>
{
    /** Per-region counts, keyed by the region's simt_s pc. */
    std::map<Addr, CounterSet<RegionCounter>> regions;

    void
    reset()
    {
        CounterSet::reset();
        regions.clear();
    }

    /** Write every nonzero counter into @p out, each region's under
     *  its sim::simtRegionKey(). */
    void
    emit(StatGroup &out) const
    {
        CounterSet::emit(out);
        for (const auto &[pc, r] : regions)
            r.emit(out, sim::simtRegionKey(pc, ""));
    }
};

} // namespace diag::core

#endif // DIAG_DIAG_COUNTERS_HPP
