/**
 * @file
 * Bottleneck attribution: align the cycles a run actually spent in
 * each simt region (the ring's per-region counters) against the §9
 * static bound model's prediction, decompose the predicted schedule
 * into fill vs steady-state vs replica-setup components, name the
 * model's dominant limiter, and quantify the measured-vs-predicted
 * gap. This is the closing of the loop between diag-bound and the
 * simulator that every later performance PR measures against.
 */
#ifndef DIAG_TRACE_ATTRIBUTION_HPP
#define DIAG_TRACE_ATTRIBUTION_HPP

#include <string>
#include <vector>

#include "analysis/bound.hpp"
#include "common/stats.hpp"

namespace diag::trace
{

/** One region's measured-vs-model decomposition. */
struct RegionAttribution
{
    Addr pc = 0;              //!< simt_s address
    double entries = 0;       //!< pipeline entries observed
    double threads = 0;       //!< threads launched
    double measured = 0;      //!< summed measured region cycles
    double lower_bound = 0;   //!< provable minimum for those counts
    double predicted = 0;     //!< model estimate for those counts
    double fill_cycles = 0;   //!< predicted fill component
    double steady_cycles = 0; //!< predicted steady-state component
    double setup_cycles = 0;  //!< predicted replica line-load component
    double gap = 0;           //!< measured - predicted (signed)
    double gap_frac = 0;      //!< gap / measured (0 when measured = 0)
    /** The model's dominant limiter of the initiation interval:
     *  "recurrence", "memory-order", "memory-bandwidth",
     *  "memory-lane", "compute", or "cluster-fit". */
    std::string bottleneck;
    /** Largest predicted component: "fill", "steady", or "setup". */
    std::string dominant;
    bool pipelined = false;   //!< region actually entered at run time
};

/** Whole-run attribution. */
struct AttributionReport
{
    std::string workload;
    std::string config;
    bool simt = false;
    double total_cycles = 0;
    double instructions = 0;
    double region_cycles = 0;  //!< sum of measured region cycles
    double serial_cycles = 0;  //!< total - region (serial sections)
    std::vector<RegionAttribution> regions;
};

/**
 * One region's attribution from its static model and the run counters
 * (the `simt_region_<pc>_{entries,threads,cycles}` keys the ring
 * records). A region the run never pipelined comes back with
 * pipelined = false, its counts, and the model's static bottleneck.
 */
RegionAttribution attributeRegion(const analysis::RegionBound &r,
                                  const StatGroup &counters);

/**
 * Build the attribution of every region the bound model covers, in
 * its order (attributeRegion() each), plus the serial remainder of
 * @p total_cycles.
 */
AttributionReport
attributeRegions(const analysis::BoundResult &bound,
                 const StatGroup &counters, double total_cycles,
                 double instructions);

/** Human-readable report (one block per region, aligned columns). */
std::string renderAttribution(const AttributionReport &r);

/** Deterministic JSON rendering. */
std::string renderAttributionJson(const AttributionReport &r);

} // namespace diag::trace

#endif // DIAG_TRACE_ATTRIBUTION_HPP
