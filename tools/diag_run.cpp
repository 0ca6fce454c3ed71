/**
 * @file
 * diag-run: command-line driver for the simulators.
 *
 *   diag-run [options] [program.s]
 *     --engine diag|ooo|golden    execution engine (default: diag)
 *     --config I4C2|F4C2|F4C16|F4C32   DiAG preset (default: F4C32)
 *     --threads N                 software threads (default: 1)
 *     --workload NAME             run a built-in benchmark kernel
 *     --simt                      use the workload's simt variant
 *     --list-workloads            print the benchmark inventory
 *     --stats                     dump every model counter
 *     --regs                      dump final integer registers
 *     --max-insts N               instruction budget
 *     --max-cycles N              cycle ceiling (structured timeout)
 *     --golden-diff               diff final state against the golden
 *                                 reference (file mode)
 *     --diff-fuzz N               run N seeded fuzz programs through
 *                                 the engine vs golden, then exit
 *     --validate                  cross-check measured cycles against
 *                                 the static bound model (diag engine,
 *                                 workload mode)
 *
 * With a .s file, the program is assembled and run; with --workload,
 * the named kernel (inputs + output check included) is run instead.
 *
 * Exit codes (CI tells pass from SDC from crash):
 *   0  pass        2  wrong result (SDC / failed check)
 *   1  usage or internal error     3  timeout (watchdog/budget)
 *   4  hardware trap or detected-unrecoverable abort
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "diag/processor.hpp"
#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "host/parallel.hpp"
#include "harness/validate.hpp"
#include "isa/disasm.hpp"
#include "ooo/processor.hpp"
#include "sim/fuzz.hpp"
#include "sim/golden.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"

using namespace diag;

namespace
{

struct Options
{
    std::string engine = "diag";
    std::string config = "F4C32";
    std::string workload;
    std::string file;
    unsigned threads = 1;
    bool simt = false;
    bool stats = false;
    bool regs = false;
    bool golden_diff = false;
    bool validate = false;
    u64 max_insts = 500'000'000;
    u64 max_cycles = 0;  //!< 0 = keep the config's default
    unsigned diff_fuzz = 0;
    u64 seed = 1;   //!< base seed for --diff-fuzz
    unsigned jobs = 0;  //!< host threads for --diff-fuzz (0 = auto)
    std::string trace_file;    //!< Chrome trace JSON output
    std::string metrics_file;  //!< time-series samples JSON output
    std::string stats_json;    //!< byte-stable counter dump output
    u32 trace_events = trace::kDefaultEvents;
    u64 metrics_stride = 0;    //!< 0 = no time-series sampling

    bool wantsTrace() const
    {
        return !trace_file.empty() || !metrics_file.empty();
    }

    trace::TraceConfig
    traceConfig() const
    {
        trace::TraceConfig tc;
        tc.event_mask = trace_events;
        // --metrics without an explicit stride samples every 1k cycles.
        tc.metrics_stride = metrics_stride
                                ? metrics_stride
                                : (metrics_file.empty() ? 0 : 1000);
        return tc;
    }
};

/** Write the Chrome trace and/or metrics series a run collected. */
void
writeTraceOutputs(const Options &opt, const trace::Tracer &trc,
                  const trace::TraceMeta &meta)
{
    if (!opt.trace_file.empty()) {
        std::ofstream os(opt.trace_file);
        fatal_if(!os.good(), "cannot write '%s'",
                 opt.trace_file.c_str());
        trace::writeChromeTrace(os, trc, meta);
        std::printf("trace         %s (%zu events, %llu dropped)\n",
                    opt.trace_file.c_str(), trc.sink().events().size(),
                    static_cast<unsigned long long>(
                        trc.sink().dropped()));
        if (trc.sink().dropped() > 0)
            std::fprintf(stderr,
                         "diag-run: warning: the trace ring buffer "
                         "dropped %llu events (oldest first); narrow "
                         "--trace-events to keep the whole run\n",
                         static_cast<unsigned long long>(
                             trc.sink().dropped()));
    }
    if (!opt.metrics_file.empty()) {
        std::ofstream os(opt.metrics_file);
        fatal_if(!os.good(), "cannot write '%s'",
                 opt.metrics_file.c_str());
        trace::writeMetricsJson(os, trc, meta);
        std::printf("metrics       %s (%zu samples, stride %llu)\n",
                    opt.metrics_file.c_str(),
                    trc.metrics().samples().size(),
                    static_cast<unsigned long long>(
                        trc.metrics().stride()));
    }
}

/** Satellite of the trace subsystem: byte-stable counters-to-file. */
void
writeStatsJson(const Options &opt, const sim::RunStats &rs)
{
    if (opt.stats_json.empty())
        return;
    std::ofstream os(opt.stats_json);
    fatal_if(!os.good(), "cannot write '%s'", opt.stats_json.c_str());
    rs.counters.dumpJson(os);
}

void
listWorkloads()
{
    auto show = [](const workloads::Workload &w) {
        std::printf("  %-16s %-8s %s%s\n", w.name.c_str(),
                    w.suite.c_str(), w.description.c_str(),
                    w.asm_simt.empty() ? "" : " [simt]");
    };
    std::printf("Rodinia-class:\n");
    for (const auto &w : workloads::rodiniaSuite())
        show(w);
    std::printf("SPEC-class:\n");
    for (const auto &w : workloads::specSuite())
        show(w);
}

void
printStats(const sim::RunStats &rs, const Options &opt)
{
    std::printf("cycles        %llu\n",
                static_cast<unsigned long long>(rs.cycles));
    std::printf("instructions  %llu\n",
                static_cast<unsigned long long>(rs.instructions));
    std::printf("ipc           %.3f\n", rs.ipc());
    std::printf("halted        %s\n", rs.halted ? "yes" : "NO");
    if (opt.stats) {
        std::printf("-- counters --\n");
        for (const auto &kv : rs.counters.all())
            std::printf("%-28s %.0f\n", kv.first.c_str(), kv.second);
    }
}

/**
 * Map a finished run onto the documented exit codes: timeouts (3) and
 * traps/aborts (4) take precedence over result checking (2).
 */
int
classify(const sim::RunStats &rs, bool checked)
{
    if (rs.timed_out)
        return 3;
    if (rs.faulted || rs.aborted || !rs.halted)
        return 4;
    return checked ? 0 : 2;
}

int
runWorkload(const Options &opt)
{
    const workloads::Workload w = workloads::findWorkload(opt.workload);
    harness::RunSpec spec{opt.threads, opt.simt,
                          /*tolerate_failures=*/true};
    const trace::TraceConfig tc = opt.traceConfig();
    if (opt.wantsTrace()) {
        fatal_if(opt.engine != "diag",
                 "--trace/--metrics hook the diag engine only");
        spec.trace = &tc;
    }
    harness::EngineRun run;
    if (opt.engine == "diag") {
        core::DiagConfig cfg = harness::configByName(opt.config);
        if (opt.max_cycles)
            cfg.max_cycles = opt.max_cycles;
        run = harness::runOnDiag(cfg, w, spec);
    } else if (opt.engine == "ooo") {
        ooo::OooConfig cfg = ooo::OooConfig::baseline8();
        if (opt.max_cycles)
            cfg.max_cycles = opt.max_cycles;
        run = harness::runOnOoo(cfg, w, spec);
    } else {
        fatal("--workload requires --engine diag or ooo");
    }
    std::printf("workload %s on %s: output check %s\n",
                w.name.c_str(), opt.engine.c_str(),
                run.checked ? "passed" : "FAILED");
    printStats(run.stats, opt);
    std::printf("energy        %.3f uJ\n",
                run.energy.totalJoules() * 1e6);
    if (run.trace)
        writeTraceOutputs(opt, *run.trace,
                          {w.name, opt.config, opt.simt});
    writeStatsJson(opt, run.stats);
    int rc = classify(run.stats, run.checked);
    if (rc == 0 && opt.validate) {
        fatal_if(opt.engine != "diag",
                 "--validate checks the diag engine's timing");
        const harness::ValidationReport rep = harness::validateBound(
            harness::configByName(opt.config), w, opt.simt);
        std::printf("%s", harness::renderValidation(rep).c_str());
        if (!rep.ok()) {
            std::printf("FAIL (exit 2): static bound validation "
                        "failed\n");
            return 2;  // timing contract broken: bound or prediction
        }
    }
    if (rc != 0)
        std::printf("FAIL (exit %d): %s\n", rc,
                    run.stats.stop_reason.empty()
                        ? (rc == 2 ? "silent data corruption: "
                                     "output check failed"
                                   : "did not halt")
                        : run.stats.stop_reason.c_str());
    return rc;
}

/**
 * Run an already-assembled program on the chosen engine; fills final
 * registers and (when @p mem_out is non-null) moves out the engine's
 * final memory image for golden-diff comparison.
 */
sim::RunStats
runProgram(const Options &opt, const Program &prog,
           u32 final_regs[isa::kNumRegs], SparseMemory *mem_out,
           trace::Tracer *trc = nullptr)
{
    sim::RunStats rs;
    if (opt.engine == "golden") {
        sim::GoldenSim sim(prog);
        const sim::RunResult r = sim.run(opt.max_insts);
        rs.cycles = r.inst_count;  // functional: 1 "cycle" per inst
        rs.instructions = r.inst_count;
        rs.halted = r.halted;
        rs.faulted = r.faulted;
        if (r.faulted)
            rs.stop_reason = detail::vformat(
                "golden fault at pc 0x%x", r.stop_pc);
        else if (!r.halted)
            rs.timed_out = true;
        for (unsigned i = 0; i < isa::kNumRegs; ++i)
            final_regs[i] = sim.reg(static_cast<isa::RegId>(i));
        if (mem_out)
            *mem_out = sim.memory();
    } else if (opt.engine == "ooo") {
        ooo::OooConfig cfg = ooo::OooConfig::baseline8();
        if (opt.max_cycles)
            cfg.max_cycles = opt.max_cycles;
        ooo::OooProcessor proc(cfg);
        rs = proc.run(prog, opt.max_insts);
        for (unsigned i = 0; i < isa::kNumRegs; ++i)
            final_regs[i] =
                proc.finalReg(0, static_cast<isa::RegId>(i));
        if (mem_out)
            *mem_out = proc.memory();
    } else {
        core::DiagConfig cfg = harness::configByName(opt.config);
        if (opt.max_cycles)
            cfg.max_cycles = opt.max_cycles;
        core::DiagProcessor proc(cfg);
        proc.attachTrace(trc);
        rs = proc.run(prog, opt.max_insts);
        proc.attachTrace(nullptr);
        for (unsigned i = 0; i < isa::kNumRegs; ++i)
            final_regs[i] =
                proc.finalReg(0, static_cast<isa::RegId>(i));
        if (mem_out)
            *mem_out = proc.memory();
    }
    return rs;
}

/**
 * Compare an engine run against the functional golden reference:
 * every unified register plus the full memory image. Returns true
 * when architecturally identical; appends its report to @p out (so
 * host-parallel fuzz workers can emit whole per-seed blocks).
 */
bool
goldenDiff(const Program &prog, u64 max_insts,
           const u32 final_regs[isa::kNumRegs],
           const SparseMemory &mem, bool verbose_pass,
           std::string &out)
{
    sim::GoldenSim gold(prog);
    const sim::RunResult gr = gold.run(max_insts);
    if (!gr.halted) {
        out += "golden-diff: golden reference did not halt; diff "
               "skipped\n";
        return false;
    }
    bool ok = true;
    for (unsigned i = 0; i < isa::kNumRegs; ++i) {
        const u32 want = gold.reg(static_cast<isa::RegId>(i));
        if (final_regs[i] != want) {
            out += detail::vformat(
                "golden-diff: %s = 0x%08x, golden has 0x%08x\n",
                isa::regName(static_cast<isa::RegId>(i)).c_str(),
                final_regs[i], want);
            ok = false;
        }
    }
    if (!mem.sameContents(gold.memory())) {
        out += "golden-diff: final memory image differs\n";
        ok = false;
    }
    if (ok && verbose_pass)
        out += "golden-diff: architectural state matches\n";
    return ok;
}

int
runFile(const Options &opt)
{
    std::ifstream in(opt.file);
    fatal_if(!in.good(), "cannot open '%s'", opt.file.c_str());
    std::stringstream ss;
    ss << in.rdbuf();
    const Program prog = assembler::assemble(ss.str());

    u32 final_regs[isa::kNumRegs] = {};
    SparseMemory mem;
    const bool want_mem = opt.golden_diff;
    std::unique_ptr<trace::Tracer> trc;
    if (opt.wantsTrace()) {
        fatal_if(opt.engine != "diag",
                 "--trace/--metrics hook the diag engine only");
        trc = std::make_unique<trace::Tracer>(opt.traceConfig());
    }
    const sim::RunStats rs = runProgram(opt, prog, final_regs,
                                        want_mem ? &mem : nullptr,
                                        trc.get());
    printStats(rs, opt);
    if (trc)
        writeTraceOutputs(opt, *trc, {opt.file, opt.config, false});
    writeStatsJson(opt, rs);
    if (opt.regs) {
        std::printf("-- registers --\n");
        for (unsigned i = 0; i < isa::kNumIntRegs; ++i) {
            std::printf("%-4s 0x%08x%s",
                        isa::regName(static_cast<isa::RegId>(i)).c_str(),
                        final_regs[i], (i % 4 == 3) ? "\n" : "  ");
        }
    }
    int rc = classify(rs, true);
    if (rc == 0 && opt.golden_diff && opt.engine != "golden") {
        std::string diff;
        const bool ok =
            goldenDiff(prog, opt.max_insts, final_regs, mem, true,
                       diff);
        std::fputs(diff.c_str(), stdout);
        if (!ok)
            rc = 2;  // silent data corruption vs the reference
    }
    if (rc != 0)
        std::printf("FAIL (exit %d): %s\n", rc,
                    rs.stop_reason.empty()
                        ? (rc == 2 ? "golden-diff mismatch"
                                   : "did not halt")
                        : rs.stop_reason.c_str());
    return rc;
}

/**
 * Differential fuzzing: N seeded random programs, each executed on the
 * selected engine and on the golden reference, with full architectural
 * state compared at the end. Any divergence exits 2. Seeds fan out
 * over host workers (--jobs); each seed derives its program from
 * opt.seed + index and reports are printed in seed order, so the
 * output is byte-identical for any job count.
 */
int
runDiffFuzz(const Options &opt)
{
    fatal_if(opt.engine == "golden",
             "--diff-fuzz compares an engine against golden; pick "
             "--engine diag or ooo");
    struct SeedResult
    {
        bool ok = false;
        std::string report;
    };
    const std::vector<SeedResult> results =
        host::parallelMap<SeedResult>(
            opt.jobs, opt.diff_fuzz, [&opt](size_t n) {
                SeedResult res;
                sim::FuzzOptions fo;
                fo.seed = opt.seed + n;
                const std::string src = sim::generateFuzzProgram(fo);
                const Program prog = assembler::assemble(src);
                u32 final_regs[isa::kNumRegs] = {};
                SparseMemory mem;
                const sim::RunStats rs =
                    runProgram(opt, prog, final_regs, &mem);
                res.ok = rs.halted && !rs.faulted && !rs.timed_out;
                if (!res.ok) {
                    res.report = detail::vformat(
                        "diff-fuzz seed %llu: engine stopped: %s\n",
                        static_cast<unsigned long long>(fo.seed),
                        rs.stop_reason.empty()
                            ? "did not halt"
                            : rs.stop_reason.c_str());
                } else if (!goldenDiff(prog, opt.max_insts, final_regs,
                                       mem, false, res.report)) {
                    res.report += detail::vformat(
                        "diff-fuzz seed %llu: MISMATCH vs golden\n",
                        static_cast<unsigned long long>(fo.seed));
                    res.ok = false;
                }
                return res;
            });
    unsigned mismatches = 0;
    for (const SeedResult &res : results) {
        std::fputs(res.report.c_str(), stdout);
        if (!res.ok)
            ++mismatches;
    }
    std::printf("diff-fuzz: %u/%u seeds matched golden\n",
                opt.diff_fuzz - mismatches, opt.diff_fuzz);
    return mismatches ? 2 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> files;
    std::string trace_events;
    bool list_workloads = false;
    harness::ArgParser ap("diag-run", "[program.s]");
    ap.option("--engine", &opt.engine, "diag|ooo|golden",
              "execution engine (default diag)")
        .configFlag(&opt.config)
        .option("--threads", &opt.threads, "N", "software threads")
        .option("--workload", &opt.workload, "NAME",
                "run a built-in benchmark kernel")
        .flag("--simt", &opt.simt,
              "use the simt-annotated variant")
        .flag("--list-workloads", &list_workloads,
              "list the benchmark inventory")
        .flag("--stats", &opt.stats, "dump all model counters")
        .flag("--regs", &opt.regs, "dump final integer registers")
        .option("--max-insts", &opt.max_insts, "N",
                "instruction budget")
        .option("--max-cycles", &opt.max_cycles, "N",
                "cycle ceiling (timeout)")
        .flag("--golden-diff", &opt.golden_diff,
              "diff final state vs golden")
        .option("--diff-fuzz", &opt.diff_fuzz, "N",
                "differential fuzz N seeds")
        .jobsFlag(&opt.jobs)
        .flag("--validate", &opt.validate,
              "cross-check vs the static bound")
        .seedFlag(&opt.seed)
        .option("--trace", &opt.trace_file, "FILE",
                "write a Chrome/Perfetto trace (diag engine only)")
        .option("--trace-events", &trace_events, "LIST",
                "comma list of event kinds, or 'all'/'default' "
                "(default skips lane-write)")
        .option("--metrics", &opt.metrics_file, "FILE",
                "write IPC/occupancy time series")
        .option("--metrics-stride", &opt.metrics_stride, "N",
                "sample bucket width in cycles (default 1000 with "
                "--metrics)")
        .option("--stats-json", &opt.stats_json, "FILE",
                "byte-stable JSON counter dump")
        .operands(&files);
    switch (ap.parse(argc, argv)) {
    case harness::ArgParser::Status::Help:
        return 0;
    case harness::ArgParser::Status::Usage:
        return 1;
    case harness::ArgParser::Status::Run:
        break;
    }
    if (list_workloads) {
        listWorkloads();
        return 0;
    }
    if (!trace_events.empty()) {
        std::string bad;
        fatal_if(!trace::parseEventMask(trace_events,
                                        opt.trace_events, bad),
                 "unknown trace event kind '%s'", bad.c_str());
    }
    fatal_if(files.size() > 1, "more than one program file given");
    if (!files.empty())
        opt.file = files.front();
    if (opt.diff_fuzz > 0)
        return runDiffFuzz(opt);
    if (!opt.workload.empty())
        return runWorkload(opt);
    if (opt.file.empty()) {
        ap.usage();
        fatal("no program file or --workload given");
    }
    return runFile(opt);
}
