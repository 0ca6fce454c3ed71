#include "trace/attribution.hpp"

#include "common/log.hpp"
#include "sim/run_stats.hpp"

namespace diag::trace
{

AttributionReport
attributeRegions(const analysis::BoundResult &bound,
                 const StatGroup &counters, double total_cycles,
                 double instructions)
{
    AttributionReport rep;
    rep.total_cycles = total_cycles;
    rep.instructions = instructions;
    for (const analysis::RegionBound &r : bound.regions) {
        RegionAttribution a;
        a.pc = r.simt_s_pc;
        a.entries =
            counters.get(sim::simtRegionKey(r.simt_s_pc, "entries"));
        a.threads =
            counters.get(sim::simtRegionKey(r.simt_s_pc, "threads"));
        a.measured =
            counters.get(sim::simtRegionKey(r.simt_s_pc, "cycles"));
        a.pipelined = a.entries > 0;
        if (!a.pipelined) {
            // Static-only attribution: model one entry with enough
            // threads to reach steady state, so the report still
            // names the limiter the model expects for this region.
            a.bottleneck = r.bottleneck(64, 1);
            rep.regions.push_back(a);
            continue;
        }
        a.lower_bound = r.lowerBound(a.threads, a.entries);
        a.predicted = r.predict(a.threads, a.entries);
        a.bottleneck = r.bottleneck(a.threads, a.entries);
        // Mirror RegionBound::predict()'s decomposition.
        const unsigned replicas = r.replicasFor(a.threads, a.entries);
        a.fill_cycles = a.entries * r.fill_pred;
        a.steady_cycles = (a.threads - a.entries) *
                          r.iiPred(a.threads, a.entries);
        a.setup_cycles =
            replicas > 1
                ? a.entries *
                      (static_cast<double>(replicas - 1) * r.lines *
                           r.setup_per_line +
                       r.setup_fixed)
                : 0;
        a.gap = a.measured - a.predicted;
        a.gap_frac = a.measured > 0 ? a.gap / a.measured : 0;
        a.dominant = "fill";
        double best = a.fill_cycles;
        if (a.steady_cycles > best) {
            a.dominant = "steady";
            best = a.steady_cycles;
        }
        if (a.setup_cycles > best)
            a.dominant = "setup";
        rep.region_cycles += a.measured;
        rep.regions.push_back(a);
    }
    rep.serial_cycles = total_cycles > rep.region_cycles
                            ? total_cycles - rep.region_cycles
                            : 0;
    return rep;
}

std::string
renderAttribution(const AttributionReport &r)
{
    std::string out = detail::vformat(
        "%s [%s]%s: %.0f cycles total = %.0f in %zu simt region(s) + "
        "%.0f serial\n",
        r.workload.c_str(), r.config.c_str(), r.simt ? " (simt)" : "",
        r.total_cycles, r.region_cycles, r.regions.size(),
        r.serial_cycles);
    for (const RegionAttribution &a : r.regions) {
        if (!a.pipelined) {
            out += detail::vformat(
                "  region 0x%08x: never pipelined at run time "
                "(model expects bottleneck: %s)\n",
                a.pc, a.bottleneck.c_str());
            continue;
        }
        out += detail::vformat(
            "  region 0x%08x: %.0f entries, %.0f threads\n"
            "    measured %.0f  predicted %.0f  bound %.0f  "
            "gap %+.0f (%+.1f%%)\n"
            "    model: fill %.0f, steady %.0f, setup %.0f -> "
            "dominant %s, bottleneck %s\n",
            a.pc, a.entries, a.threads, a.measured, a.predicted,
            a.lower_bound, a.gap, a.gap_frac * 100.0, a.fill_cycles,
            a.steady_cycles, a.setup_cycles, a.dominant.c_str(),
            a.bottleneck.c_str());
    }
    return out;
}

std::string
renderAttributionJson(const AttributionReport &r)
{
    std::string out = detail::vformat(
        "{\n  \"workload\": \"%s\",\n  \"config\": \"%s\",\n"
        "  \"simt\": %s,\n  \"total_cycles\": %.0f,\n"
        "  \"instructions\": %.0f,\n  \"region_cycles\": %.0f,\n"
        "  \"serial_cycles\": %.0f,\n  \"regions\": [",
        r.workload.c_str(), r.config.c_str(),
        r.simt ? "true" : "false", r.total_cycles, r.instructions,
        r.region_cycles, r.serial_cycles);
    bool first = true;
    for (const RegionAttribution &a : r.regions) {
        out += first ? "\n" : ",\n";
        first = false;
        out += detail::vformat(
            "    {\"pc\": \"0x%08x\", \"pipelined\": %s, "
            "\"entries\": %.0f, \"threads\": %.0f, "
            "\"measured\": %.0f, \"predicted\": %.0f, "
            "\"lower_bound\": %.0f, \"fill\": %.1f, "
            "\"steady\": %.1f, \"setup\": %.1f, \"gap\": %.0f, "
            "\"gap_frac\": %.4f, \"dominant\": \"%s\", "
            "\"bottleneck\": \"%s\"}",
            a.pc, a.pipelined ? "true" : "false", a.entries,
            a.threads, a.measured, a.predicted, a.lower_bound,
            a.fill_cycles, a.steady_cycles, a.setup_cycles, a.gap,
            a.gap_frac, a.dominant.c_str(), a.bottleneck.c_str());
    }
    out += first ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

} // namespace diag::trace
