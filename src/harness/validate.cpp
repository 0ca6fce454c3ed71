#include "harness/validate.hpp"

#include <cmath>

#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "diag/cluster.hpp"
#include "harness/runner.hpp"
#include "host/parallel.hpp"

namespace diag::harness
{

analysis::BoundParams
boundParamsFrom(const core::DiagConfig &cfg)
{
    analysis::BoundParams p;
    p.segment_size = cfg.segment_size;
    p.inter_cluster_latch = cfg.inter_cluster_latch;
    p.mem_lane_latency = cfg.mem_lane_latency;
    p.line_buffer_latency = cfg.line_buffer_latency;
    p.l1d_hit_latency = cfg.mem.l1d.hit_latency;
    p.l1i_hit_latency = cfg.mem.l1i.hit_latency;
    p.bus_iline_transfer = cfg.bus_iline_transfer;
    p.decode_latency = cfg.decode_latency;
    p.squash_resteer = cfg.squash_resteer;
    p.lsu_issue_occupancy = cfg.lsu_issue_occupancy;
    p.mem_lane_entries = cfg.mem_lane_entries;
    p.line_buf_entries = core::Cluster::kLineBufEntries;
    p.l1d_line_bytes = cfg.mem.l1d.line_bytes;
    p.l1d_banks = cfg.mem.l1d.banks;
    p.l1d_bank_occupancy = cfg.mem.l1d.bank_occupancy;
    return p;
}

analysis::LintOptions
lintOptionsFor(const core::DiagConfig &cfg)
{
    analysis::LintOptions opt = analysis::LintOptions::abiEntry();
    opt.line_bytes = cfg.pes_per_cluster * 4;
    opt.clusters_per_ring = cfg.clustersPerRing();
    opt.simt_enabled = cfg.simt_enabled;
    opt.timing = boundParamsFrom(cfg);
    return opt;
}

bool
ValidationReport::ok() const
{
    if (!ok_program)
        return false;
    for (const auto &r : regions)
        if (!r.ok_bound || !r.ok_pred)
            return false;
    return true;
}

ValidationReport
validateBound(const core::DiagConfig &cfg, const workloads::Workload &w,
              bool use_simt, double slack)
{
    ValidationReport rep;
    rep.workload = w.name;
    rep.config = cfg.name;
    rep.simt = use_simt;

    const Program prog = assembler::assemble(
        use_simt ? w.asm_simt : w.asm_serial);
    const analysis::ProgramAnalysis an =
        analysis::analyzeProgram(prog, lintOptionsFor(cfg));

    RunSpec spec;
    spec.threads = 1;
    spec.use_simt = use_simt;
    const EngineRun run = runOnDiag(cfg, w, spec);
    rep.measured_cycles = static_cast<double>(run.stats.cycles);

    // Per-region checks against the counters the ring recorded.
    double piped_insts = 0;
    double region_lb = 0;
    for (const auto &r : an.bound.regions) {
        RegionCheck c;
        c.pc = r.simt_s_pc;
        c.entries = run.stats.counters.get(
            sim::simtRegionKey(r.simt_s_pc, "entries"));
        c.threads = run.stats.counters.get(
            sim::simtRegionKey(r.simt_s_pc, "threads"));
        c.measured = run.stats.counters.get(
            sim::simtRegionKey(r.simt_s_pc, "cycles"));
        if (c.entries <= 0) {
            // Region never pipelined at run time (not reached, or the
            // control unit rejected it): nothing to compare.
            rep.regions.push_back(c);
            continue;
        }
        c.lower_bound = r.lowerBound(c.threads, c.entries);
        c.predicted = r.predict(c.threads, c.entries);
        c.bottleneck = r.bottleneck(c.threads, c.entries);
        c.ok_bound = c.measured + 1e-9 >= c.lower_bound;
        c.err = c.measured > 0
                    ? std::abs(c.predicted - c.measured) / c.measured
                    : 0.0;
        c.ok_pred = c.err <= slack;
        region_lb += c.lower_bound;
        // body + the simt_s/simt_e markers retire per pipelined thread
        piped_insts += c.threads * (r.body_insts + 2);
        rep.regions.push_back(c);
    }

    // Whole-program bound: region bounds plus the serial instructions.
    // Serial activations retire at most one I-line (pes_per_cluster
    // instructions) per inter-cluster latch, so their span is at least
    // latch * ceil(serial / pes_per_cluster) cycles.
    const double serial = std::max(
        0.0, static_cast<double>(run.stats.instructions) - piped_insts);
    rep.program_lower_bound =
        region_lb +
        static_cast<double>(cfg.inter_cluster_latch) *
            std::ceil(serial / static_cast<double>(cfg.pes_per_cluster));
    rep.ok_program =
        rep.measured_cycles + 1e-9 >= rep.program_lower_bound;
    return rep;
}

std::vector<ValidationReport>
validateBoundMany(const std::vector<BoundCell> &cells, unsigned jobs)
{
    return host::parallelMap<ValidationReport>(
        jobs, cells.size(), [&cells](size_t i) {
            const BoundCell &c = cells[i];
            panic_if(c.w == nullptr, "bound cell %zu has no workload",
                     i);
            return validateBound(c.cfg, *c.w, c.use_simt, c.slack);
        });
}

std::string
renderValidation(const ValidationReport &r)
{
    std::string out = detail::vformat(
        "%s [%s]%s: measured %.0f cycles, program bound %.0f  %s\n",
        r.workload.c_str(), r.config.c_str(), r.simt ? " (simt)" : "",
        r.measured_cycles, r.program_lower_bound,
        r.ok_program ? "ok" : "VIOLATED");
    for (const auto &c : r.regions) {
        if (c.entries <= 0) {
            out += detail::vformat(
                "  region 0x%08x: never pipelined at run time\n", c.pc);
            continue;
        }
        out += detail::vformat(
            "  region 0x%08x: %.0f entries, %.0f threads, measured "
            "%.0f, bound %.0f%s, predicted %.0f (err %.1f%%%s, "
            "bottleneck: %s)\n",
            c.pc, c.entries, c.threads, c.measured, c.lower_bound,
            c.ok_bound ? "" : " VIOLATED", c.predicted, c.err * 100.0,
            c.ok_pred ? "" : ", OVER SLACK", c.bottleneck.c_str());
    }
    return out;
}

std::string
renderValidationJson(const ValidationReport &r)
{
    std::string out = detail::vformat(
        "{\n  \"workload\": \"%s\",\n  \"config\": \"%s\",\n"
        "  \"simt\": %s,\n  \"measured_cycles\": %.0f,\n"
        "  \"program_lower_bound\": %.0f,\n  \"ok\": %s,\n"
        "  \"regions\": [",
        r.workload.c_str(), r.config.c_str(),
        r.simt ? "true" : "false", r.measured_cycles,
        r.program_lower_bound, r.ok() ? "true" : "false");
    bool first = true;
    for (const auto &c : r.regions) {
        out += first ? "\n" : ",\n";
        first = false;
        out += detail::vformat(
            "    {\"pc\": \"0x%08x\", \"entries\": %.0f, "
            "\"threads\": %.0f, \"measured\": %.0f, "
            "\"lower_bound\": %.0f, \"predicted\": %.0f, "
            "\"err\": %.4f, \"bottleneck\": \"%s\", "
            "\"ok_bound\": %s, \"ok_pred\": %s}",
            c.pc, c.entries, c.threads, c.measured, c.lower_bound,
            c.predicted, c.err, c.bottleneck.c_str(),
            c.ok_bound ? "true" : "false", c.ok_pred ? "true" : "false");
    }
    out += first ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

} // namespace diag::harness
