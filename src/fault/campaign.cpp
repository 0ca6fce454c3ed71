#include "fault/campaign.hpp"

#include <algorithm>
#include <memory>

#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "diag/processor.hpp"
#include "fault/controller.hpp"
#include "fault/lockstep.hpp"
#include "host/parallel.hpp"
#include "sim/golden.hpp"
#include "workloads/workload.hpp"

namespace diag::fault
{

namespace
{

/** Deterministic per-trial seed derivation (splitmix-style). */
u64
trialSeed(u64 campaign_seed, unsigned trial)
{
    u64 z = campaign_seed + 0x9e3779b97f4a7c15ull * (trial + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
siteMaskNames(u32 mask)
{
    std::string out;
    for (unsigned s = 0; s < static_cast<unsigned>(FaultSite::Count);
         ++s) {
        if (!(mask & (1u << s)))
            continue;
        if (!out.empty())
            out += ',';
        out += siteName(static_cast<FaultSite>(s));
    }
    return out;
}

void
tallyOutcome(SiteSummary &sum, const TrialRecord &rec)
{
    ++sum.trials;
    if (rec.fired)
        ++sum.fired;
    switch (rec.outcome) {
      case Outcome::Masked: ++sum.masked; break;
      case Outcome::Detected:
        ++sum.detected;
        if (rec.recovered)
            ++sum.recovered;
        break;
      case Outcome::Sdc: ++sum.sdc; break;
      case Outcome::Hang:
        ++sum.hang;
        if (rec.host_timed_out)
            ++sum.host_timed_out;
        break;
    }
}

std::string
summaryJson(const SiteSummary &sum)
{
    return detail::vformat(
        "{\"trials\":%llu,\"fired\":%llu,\"masked\":%llu,"
        "\"detected\":%llu,\"recovered\":%llu,\"sdc\":%llu,"
        "\"hang\":%llu,\"host_timed_out\":%llu}",
        static_cast<unsigned long long>(sum.trials),
        static_cast<unsigned long long>(sum.fired),
        static_cast<unsigned long long>(sum.masked),
        static_cast<unsigned long long>(sum.detected),
        static_cast<unsigned long long>(sum.recovered),
        static_cast<unsigned long long>(sum.sdc),
        static_cast<unsigned long long>(sum.hang),
        static_cast<unsigned long long>(sum.host_timed_out));
}

/**
 * Everything a trial reads. Shared across host workers strictly
 * read-only; each trial builds its own processor, oracle, and
 * controller on top (worker confinement, DESIGN.md §10).
 */
struct TrialContext
{
    const CampaignSpec &spec;
    const workloads::Workload &w;
    const Program &prog;
    const SparseMemory &ref_mem;
    core::DiagConfig cfg;
    DetectConfig det;
    PlanSpec pspec;
    u64 inst_budget = 0;
    bool verbose = false;
};

/** One seeded injection trial, confined to the calling host worker. */
TrialRecord
runTrial(const TrialContext &ctx, unsigned t)
{
    TrialRecord rec;
    rec.index = t;
    rec.seed = trialSeed(ctx.spec.seed, t);
    // Campaign-level cancel is honoured at trial boundaries: a trial
    // that never starts stays executed=false (tallied as skipped).
    if (ctx.spec.cancel && ctx.spec.cancel->stopRequested())
        return rec;

    const FaultPlan plan = FaultPlan::random(rec.seed, ctx.pspec);
    rec.site = plan.events[0].site;
    rec.planned = describeEvent(plan.events[0]);

    FaultController fc(plan, ctx.det);
    if (ctx.spec.lockstep) {
        sim::GoldenSim oracle(ctx.prog);
        ctx.w.init(oracle.memory());
        oracle.setReg(isa::RegId{10}, 0);
        oracle.setReg(isa::RegId{11}, 1);
        fc.attachOracle(
            std::make_unique<LockstepOracle>(std::move(oracle)));
    }

    core::DiagProcessor proc(ctx.cfg);
    proc.loadProgram(ctx.prog);
    ctx.w.init(proc.memory());
    proc.warmCaches();
    proc.attachFaults(&fc);
    // Host watchdog: a pathological injected fault can in principle
    // drive the model into a state the in-sim budgets bound only
    // slowly; the wall-clock cap guarantees the campaign finishes.
    host::CancelToken watchdog;
    if (ctx.spec.host_trial_timeout_ms > 0) {
        watchdog =
            host::CancelToken::withTimeout(ctx.spec.host_trial_timeout_ms);
        proc.attachCancel(&watchdog);
    }
    const std::vector<core::ThreadSpec> specs{
        {ctx.prog.entry, {{isa::RegId{10}, 0}, {isa::RegId{11}, 1}}}};
    const sim::RunStats stats =
        proc.runThreads(ctx.prog, specs, ctx.inst_budget);
    proc.attachCancel(nullptr);

    const FaultTally &tally = fc.tally();
    rec.fired = tally.injected > 0;
    for (const EventLog &log : fc.eventLog()) {
        if (!log.note.empty())
            rec.observed += rec.observed.empty() ? log.note
                                                 : "; " + log.note;
    }
    rec.cycles = stats.cycles;
    rec.instructions = stats.instructions;
    rec.recoveries = tally.recoveries;
    rec.clusters_disabled = tally.clusters_disabled;

    const u64 detections =
        tally.parity_detections + tally.lockstep_detections;
    const bool mem_ok = proc.memory().sameContents(ctx.ref_mem);
    if (stats.timed_out) {
        rec.outcome = Outcome::Hang;
        rec.host_timed_out = stats.hostStopped();
        rec.detector = rec.host_timed_out ? "host-watchdog"
                                          : "watchdog";
    } else if (stats.aborted) {
        rec.outcome = Outcome::Detected;
        rec.detector = tally.lockstep_detections ? "lockstep"
                                                 : "parity";
    } else if (detections > 0) {
        rec.outcome = Outcome::Detected;
        rec.detector = tally.parity_detections ? "parity"
                                               : "lockstep";
        rec.recovered = stats.halted && mem_ok;
    } else if (stats.faulted) {
        rec.outcome = Outcome::Detected;
        rec.detector = "trap";
    } else if (stats.halted && mem_ok) {
        rec.outcome = Outcome::Masked;
    } else {
        rec.outcome = Outcome::Sdc;
    }

    if (ctx.verbose) {
        inform("trial %u seed 0x%llx: %s -> %s%s%s", t,
               static_cast<unsigned long long>(rec.seed),
               rec.planned.c_str(), outcomeName(rec.outcome),
               rec.detector.empty() ? "" : " by ",
               rec.detector.c_str());
    }
    rec.executed = true;
    return rec;
}

} // namespace

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Masked: return "masked";
      case Outcome::Detected: return "detected";
      case Outcome::Sdc: return "sdc";
      case Outcome::Hang: return "hang";
    }
    return "unknown";
}

u64
trialCycleBudget(u64 user_max_cycles, Cycle baseline_cycles)
{
    // max, not min: a large user ceiling must never *shrink* the
    // budget, or slow degraded-but-recovering trials misclassify as
    // timeouts. Runaway trials are still bounded by the instruction
    // budget and the forward-progress watchdog.
    return std::max<u64>(user_max_cycles,
                         baseline_cycles * 8 + 100'000);
}

CampaignReport
runCampaign(const CampaignSpec &spec, bool verbose)
{
    const workloads::Workload w = workloads::findWorkload(spec.workload);
    const Program prog = assembler::assemble(w.asm_serial);

    // Golden reference: dynamic length and the correct final memory.
    sim::GoldenSim gold(prog);
    w.init(gold.memory());
    gold.setReg(isa::RegId{10}, 0);
    gold.setReg(isa::RegId{11}, 1);
    const sim::RunResult gres = gold.run(w.max_insts);
    fatal_if(!gres.halted, "golden run of %s did not halt",
             w.name.c_str());
    const SparseMemory ref_mem = gold.memory();

    // Fault-free DiAG baseline: cycle budget and model sanity.
    CampaignReport report;
    report.spec = spec;
    report.baseline_insts = gres.inst_count;
    {
        core::DiagProcessor proc(spec.config);
        proc.loadProgram(prog);
        w.init(proc.memory());
        proc.warmCaches();
        const std::vector<core::ThreadSpec> specs{
            {prog.entry, {{isa::RegId{10}, 0}, {isa::RegId{11}, 1}}}};
        const sim::RunStats base =
            proc.runThreads(prog, specs, w.max_insts);
        fatal_if(!base.halted, "fault-free DiAG run of %s did not halt",
                 w.name.c_str());
        fatal_if(!proc.memory().sameContents(ref_mem),
                 "fault-free DiAG run of %s diverged from golden",
                 w.name.c_str());
        report.baseline_cycles = base.cycles;
    }

    // Trial configuration: generous cycle/instruction budgets so a
    // degraded (slower) ring can still finish, lint off (the program
    // image is identical every trial; one strict pass above suffices).
    TrialContext ctx{.spec = spec,
                     .w = w,
                     .prog = prog,
                     .ref_mem = ref_mem,
                     .cfg = spec.config,
                     .det = {},
                     .pspec = {},
                     .inst_budget = 0,
                     .verbose = verbose};
    ctx.cfg.lint_enabled = false;
    ctx.cfg.max_cycles =
        trialCycleBudget(spec.config.max_cycles, report.baseline_cycles);
    ctx.inst_budget = gres.inst_count * 8 + 10'000;
    ctx.det.parity = spec.parity;
    ctx.det.lockstep = spec.lockstep;
    ctx.pspec.site_mask = spec.site_mask;
    ctx.pspec.max_trigger = gres.inst_count ? gres.inst_count - 1 : 0;
    ctx.pspec.clusters = ctx.cfg.clustersPerRing();
    ctx.pspec.pes_per_cluster = ctx.cfg.pes_per_cluster;

    // Fan trials out across host workers. Every per-trial random
    // choice derives from (spec.seed, trial index) inside runTrial, and
    // parallelMap returns records in trial order, so the report is
    // byte-identical for any spec.jobs.
    report.trials = host::parallelMap<TrialRecord>(
        spec.jobs, spec.trials,
        [&ctx](size_t t) {
            return runTrial(ctx, static_cast<unsigned>(t));
        },
        spec.cancel);

    // Order-dependent aggregation stays on the merging thread. A
    // cancelled campaign leaves default-constructed (or boundary-
    // skipped) records behind; those count only as skipped.
    for (const TrialRecord &rec : report.trials) {
        if (!rec.executed) {
            ++report.skipped;
            continue;
        }
        tallyOutcome(report.total, rec);
        tallyOutcome(
            report.by_site[static_cast<unsigned>(rec.site)], rec);
    }
    return report;
}

std::string
CampaignReport::renderJson() const
{
    std::string out = "{\n";
    out += detail::vformat(
        "  \"workload\": \"%s\",\n  \"config\": \"%s\",\n"
        "  \"seed\": %llu,\n  \"sites\": \"%s\",\n"
        "  \"parity\": %s,\n  \"lockstep\": %s,\n",
        jsonEscape(spec.workload).c_str(),
        jsonEscape(spec.config.name).c_str(),
        static_cast<unsigned long long>(spec.seed),
        siteMaskNames(spec.site_mask).c_str(),
        spec.parity ? "true" : "false",
        spec.lockstep ? "true" : "false");
    out += detail::vformat(
        "  \"baseline\": {\"cycles\": %llu, \"instructions\": %llu},\n",
        static_cast<unsigned long long>(baseline_cycles),
        static_cast<unsigned long long>(baseline_insts));
    out += "  \"summary\": " + summaryJson(total) + ",\n";
    out += detail::vformat(
        "  \"skipped\": %llu,\n",
        static_cast<unsigned long long>(skipped));
    out += "  \"by_site\": {";
    bool first = true;
    for (unsigned s = 0; s < static_cast<unsigned>(FaultSite::Count);
         ++s) {
        if (by_site[s].trials == 0)
            continue;
        out += detail::vformat(
            "%s\n    \"%s\": ", first ? "" : ",",
            siteName(static_cast<FaultSite>(s)));
        out += summaryJson(by_site[s]);
        first = false;
    }
    out += "\n  },\n  \"trials\": [";
    for (size_t i = 0; i < trials.size(); ++i) {
        const TrialRecord &r = trials[i];
        if (!r.executed) {
            out += detail::vformat(
                "%s\n    {\"index\": %zu, \"skipped\": true}",
                i ? "," : "", i);
            continue;
        }
        out += detail::vformat(
            "%s\n    {\"index\": %u, \"seed\": %llu, \"site\": \"%s\", "
            "\"planned\": \"%s\", \"observed\": \"%s\", "
            "\"fired\": %s, \"outcome\": \"%s\", \"detector\": \"%s\", "
            "\"recovered\": %s, \"cycles\": %llu, "
            "\"instructions\": %llu, \"recoveries\": %llu, "
            "\"clusters_disabled\": %llu, \"host_timed_out\": %s}",
            i ? "," : "", r.index,
            static_cast<unsigned long long>(r.seed), siteName(r.site),
            jsonEscape(r.planned).c_str(),
            jsonEscape(r.observed).c_str(), r.fired ? "true" : "false",
            outcomeName(r.outcome), r.detector.c_str(),
            r.recovered ? "true" : "false",
            static_cast<unsigned long long>(r.cycles),
            static_cast<unsigned long long>(r.instructions),
            static_cast<unsigned long long>(r.recoveries),
            static_cast<unsigned long long>(r.clusters_disabled),
            r.host_timed_out ? "true" : "false");
    }
    out += "\n  ]\n}\n";
    return out;
}

} // namespace diag::fault
