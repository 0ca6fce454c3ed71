/**
 * @file
 * DiAG processor configuration, including the four hardware
 * configurations of the paper's Table 2 as presets.
 */
#ifndef DIAG_DIAG_CONFIG_HPP
#define DIAG_DIAG_CONFIG_HPP

#include <string>

#include "mem/params.hpp"

namespace diag::core
{

/** All parameters of a DiAG processor instance. */
struct DiagConfig
{
    std::string name = "F4C32";

    // ---- structural (paper §5.1, §6.1.2) ----
    unsigned pes_per_cluster = 16;  //!< one 64B I-line per cluster
    unsigned segment_size = 8;      //!< lane buffer every 8 PEs
    unsigned total_clusters = 32;   //!< across the whole processor
    unsigned num_rings = 1;         //!< rings; clusters split evenly
    bool fp_supported = true;       //!< RV32IMF vs RV32I
    double freq_ghz = 2.0;          //!< simulated clock (Table 2)

    // ---- feature switches (ablations) ----
    bool reuse_enabled = true;      //!< backward-branch datapath reuse
    bool simt_enabled = true;       //!< thread pipelining extension
    bool mem_lanes_enabled = true;  //!< store-to-load forwarding lanes
    /**
     * Localized per-PE stride prefetching (paper §5.2 names this as
     * promising future work but leaves it out of the evaluation, so it
     * defaults to off; bench_ablation_prefetch quantifies it).
     */
    bool stride_prefetch_enabled = false;
    /**
     * Statically lint every program before simulating it (strict
     * mode): programs with error-level findings — reachable invalid
     * encodings, control flow leaving the image — are rejected with
     * fatal() instead of faulting mid-simulation.
     */
    bool lint_enabled = true;

    // ---- timing ----
    /**
     * Bound on concurrently in-flight activation wavefronts under
     * loop datapath reuse: each lane boundary register holds one value,
     * so execution can only run a few iterations ahead of retirement.
     */
    unsigned speculation_depth = 12;
    Cycle decode_latency = 1;        //!< cluster decode after line load
    Cycle inter_cluster_latch = 1;   //!< lane latch between clusters
    Cycle bus_regfile_transfer = 2;  //!< §5.1.3 partial RF over the bus
    Cycle bus_iline_transfer = 1;    //!< I-line delivery over the bus
    Cycle squash_resteer = 1;        //!< redirect-to-reenable delay

    // ---- per-cluster memory interface ----
    unsigned mem_lane_entries = 16;  //!< forwarding entries per thread
    Cycle mem_lane_latency = 1;      //!< forwarding hit
    Cycle line_buffer_latency = 2;   //!< cluster-level last-line buffer
    unsigned lsq_entries = 8;        //!< outstanding requests / cluster
    Cycle lsu_issue_occupancy = 1;   //!< LSU port occupancy per access

    // ---- memory hierarchy ----
    mem::MemParams mem;

    // ---- limits ----
    u64 max_cycles = 2'000'000'000;

    /** Clusters per ring. */
    unsigned
    clustersPerRing() const
    {
        return total_clusters / num_rings;
    }

    /** Total PE count (Table 2 row "Total PEs"). */
    unsigned totalPes() const { return total_clusters * pes_per_cluster; }

    bool operator==(const DiagConfig &) const = default;

    // ---- Table 2 presets ----
    static DiagConfig i4c2();   //!< RV32I, 2 clusters, 32 PEs, 100 MHz
    static DiagConfig f4c2();   //!< RV32IMF, 2 clusters, 32 PEs
    static DiagConfig f4c16();  //!< RV32IMF, 16 clusters, 256 PEs
    static DiagConfig f4c32();  //!< RV32IMF, 32 clusters, 512 PEs
};

} // namespace diag::core

#endif // DIAG_DIAG_CONFIG_HPP
