/**
 * @file
 * In-process half of the reproduction benchmark (perfbench/run.py is
 * the entry point and runs the `figures` binaries itself).
 *
 *   suite  every cell of Fig 9a/9b/10a/10b/12, each run once per pass
 *          through harness::runOnDiag/runOnOoo with failures tolerated,
 *          plus a golden-interpreter reference per kernel.
 *   fuzz   a corpus generated from --seed by sim::generateFuzzProgramEx
 *          (plain and simt programs, no injected hazards) with seeded
 *          buffer inputs; each program is assembled, linted and run on
 *          golden, DiAG F4C32 and OoO baseline8, and the final
 *          registers and memory are diffed against golden.
 *
 * Set-up is timed first, kSetupSamples times. A pass is then repeated
 * until at least --passes passes have run and --seconds of wall time
 * have been spent. Only the first --passes passes feed the timing
 * estimators, so two commits are compared over the same number of
 * samples; every pass must reproduce the first pass's per-cell digest.
 * With
 * --trace 1 each call into a simulator module is wrapped in a span
 * (the suite replays the harness's call sequence step by step) and the
 * spans are written as Chrome trace-event JSON to --trace-out.
 *
 * Prints one JSON object on stdout; rates are simulated instructions
 * over steady-clock seconds, never process CPU time.
 *
 * usage: perfbench --workload suite|fuzz [--seed N] [--seconds S]
 *          [--passes N] [--trace 0|1] [--trace-out FILE]
 *          [--digest-out FILE] [--limit N] [--force-fail]
 */
#if !defined(__OPTIMIZE__) && !defined(PERFBENCH_ALLOW_UNOPTIMIZED)
#error "perfbench requires an optimized build: configure with \
-DCMAKE_BUILD_TYPE=Release (or pass -DPERFBENCH_ALLOW_UNOPTIMIZED=ON to \
measure an unoptimized build anyway)"
#endif

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lint.hpp"
#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "diag/processor.hpp"
#include "energy/diag_energy.hpp"
#include "energy/ooo_energy.hpp"
#include "harness/runner.hpp"
#include "harness/table.hpp"
#include "ooo/processor.hpp"
#include "sim/fuzz.hpp"
#include "sim/golden.hpp"
#include "spans.hpp"

namespace
{

using namespace diag;
using perfbench::Clock;
using perfbench::Scope;
using perfbench::SpanLog;
using workloads::Workload;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/** Set-up samples per run, taken before the first pass; setup_s is
 *  their median. */
constexpr int kSetupSamples = 9;
/** Suite constructions per set-up sample: one takes 0.1-0.25 ms, too
 *  short to time on its own against host noise. */
constexpr unsigned kSuiteBuildsPerSample = 256;
/** Timed passes per run (the default of --passes), about 20 s each. */
constexpr unsigned kSuitePasses = 5;
constexpr unsigned kFuzzPasses = 20;
/** Fuzz corpus size per pass. */
constexpr unsigned kFuzzPrograms = 1024;
/** Instruction budget of one fuzz program on any engine. */
constexpr u64 kFuzzMaxInsts = 2'000'000;

struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    unsigned passes = 0;      //!< timed passes; 0 = workload default
    bool trace = false;
    std::string trace_out;
    std::string digest_out;
    unsigned limit = 0;       //!< 0 = full size
    bool force_fail = false;  //!< first cell fails its output check
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--force-fail") {
            o.force_fail = true;
            continue;
        }
        fatal_if(!has_value, "missing value for %s", a.c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--passes")
            o.passes = static_cast<unsigned>(std::stoul(v));
        else if (a == "--trace")
            o.trace = v != "0";
        else if (a == "--trace-out")
            o.trace_out = v;
        else if (a == "--digest-out")
            o.digest_out = v;
        else if (a == "--limit")
            o.limit = static_cast<unsigned>(std::stoul(v));
        else
            fatal("unknown option '%s'", a.c_str());
    }
    fatal_if(o.workload != "suite" && o.workload != "fuzz",
             "--workload must be suite or fuzz");
    if (o.passes == 0)
        o.passes = o.workload == "suite" ? kSuitePasses : kFuzzPasses;
    return o;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

u64
fnv1a(u64 h, const std::string &s)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

constexpr u64 kFnvBasis = 14695981039346656037ull;

// ---- one engine execution and the pass ledger ----------------------

/** One engine execution of one cell. */
struct EngineResult
{
    std::string id;
    std::string engine;  //!< "diag", "ooo" or "golden"
    std::string klass;   //!< "st", "simt", "mt" or "mtsimt"
    sim::RunStats stats;
    energy::EnergyReport energy;
    bool ok = false;        //!< halted and passed its output check
    double engine_s = 0.0;  //!< steady-clock seconds the rate divides by
};

/** Exact, byte-stable record of one execution's simulated results. */
std::string
digestLine(const EngineResult &r)
{
    std::string s = r.id + " cycles=" + std::to_string(r.stats.cycles) +
                    " insts=" + std::to_string(r.stats.instructions) +
                    " halted=" + std::to_string(r.stats.halted) +
                    " ok=" + std::to_string(r.ok);
    for (const auto &[key, value] : r.stats.counters.all())
        s += " " + key + "=" + num(value);
    for (const auto &[key, value] : r.energy.breakdown_pj)
        s += " pj." + key + "=" + num(value);
    s += " pj=" + num(r.energy.totalPj());
    return s;
}

/** Counters summed per engine over one pass (model counts). */
const char *const kDiagCounts[] = {
    "l1d.reads", "l1d.misses", "l1d.bank_conflict_cycles",
    "activations", "reuse_activations", "mem_stall_cycles",
    "ctrl_stall_cycles", "other_stall_cycles"};
const char *const kOooCounts[] = {
    "l1d.reads", "l1d.misses", "l1d.bank_conflict_cycles",
    "bp_lookups", "mispredicts"};

/** One pass: every engine execution plus each timed unit's wall time. */
struct Pass
{
    std::vector<EngineResult> runs;
    std::vector<double> unit_ms;  //!< same units, same order, every pass
    size_t cells = 0;             //!< leading units that are cells
};

/**
 * Everything the passes measured, with host times kept per unit (a
 * cell, or a golden reference) and per pass. Contention from other
 * tenants of a shared host only ever slows a unit down, and comes and
 * goes on a scale of seconds to minutes; the fastest of a unit's
 * samples is therefore the steadiest estimate of its cost. Host times
 * come from a fixed number of timed passes, so a faster commit does
 * not get a lower minimum just by fitting more passes into a run.
 */
struct Ledger
{
    u64 attempted = 0;
    u64 failed = 0;
    unsigned passes = 0;
    size_t cells = 0;
    std::vector<double> pass_s;  //!< measured pass totals, for the record
    std::vector<std::vector<double>> unit_ms;   //!< [unit][pass]
    std::vector<std::vector<double>> engine_s;  //!< [run][pass]
    std::vector<EngineResult> first;            //!< the first pass's runs
    std::map<std::string, double> counts;       //!< first pass only
    std::vector<std::string> digest;            //!< first pass's lines
    std::vector<std::string> failures;

    /** Passes after the first @p timed_passes are only checked. */
    void
    addPass(const Pass &p, double seconds, unsigned timed_passes)
    {
        pass_s.push_back(seconds);
        const bool timed = passes < timed_passes;
        const bool first_pass = passes++ == 0;
        if (first_pass) {
            cells = p.cells;
            unit_ms.resize(p.unit_ms.size());
            engine_s.resize(p.runs.size());
            first = p.runs;
        }
        for (size_t i = 0;
             timed && i < p.unit_ms.size() && i < unit_ms.size(); ++i)
            unit_ms[i].push_back(p.unit_ms[i]);
        for (size_t i = 0; i < p.runs.size(); ++i) {
            const EngineResult &r = p.runs[i];
            ++attempted;
            const std::string line = digestLine(r);
            bool bad = !r.ok;
            if (first_pass)
                digest.push_back(line);
            else if (i >= digest.size() || digest[i] != line)
                bad = true;  // a pass disagreed with the first one
            if (bad) {
                ++failed;
                if (failures.size() < 20)
                    failures.push_back(r.id);
            }
            if (timed && i < engine_s.size())
                engine_s[i].push_back(r.engine_s);
            if (first_pass)
                addCounts(r);
        }
    }

    void
    addCounts(const EngineResult &r)
    {
        if (r.engine == "golden")
            return;
        const std::string e = r.engine + ".";
        counts[e + "cycles"] += static_cast<double>(r.stats.cycles);
        counts[e + "insts"] += static_cast<double>(r.stats.instructions);
        if (r.engine == "diag")
            for (const char *k : kDiagCounts)
                counts[e + k] += r.stats.counters.get(k);
        else
            for (const char *k : kOooCounts)
                counts[e + k] += r.stats.counters.get(k);
    }

    /** One pass's wall time: every unit's fastest sample, summed. */
    double
    bestPassSeconds() const
    {
        double sum = 0.0;
        for (const std::vector<double> &u : unit_ms)
            sum += *std::min_element(u.begin(), u.end());
        return sum / 1e3;
    }

    /** The same with every unit's median, for the report. */
    double
    medianPassSeconds() const
    {
        double sum = 0.0;
        for (const std::vector<double> &u : unit_ms)
            sum += median(u);
        return sum / 1e3;
    }

    /** Median wall time of each cell, in ms. */
    std::vector<double>
    cellMs() const
    {
        std::vector<double> out;
        for (size_t i = 0; i < cells && i < unit_ms.size(); ++i)
            out.push_back(median(unit_ms[i]));
        return out;
    }

    /** Rate classes present: "diag", "diag.st", ... */
    std::vector<std::string>
    rateKeys() const
    {
        std::vector<std::string> keys;
        for (const EngineResult &r : first)
            for (const std::string &k : {r.engine, r.engine + "." + r.klass})
                if (std::find(keys.begin(), keys.end(), k) == keys.end())
                    keys.push_back(k);
        std::sort(keys.begin(), keys.end());
        return keys;
    }

    /** Instructions over the summed median engine seconds of @p key. */
    double
    minstPerS(const std::string &key) const
    {
        double insts = 0.0, secs = 0.0;
        for (size_t i = 0; i < first.size(); ++i) {
            const EngineResult &r = first[i];
            if (key != r.engine && key != r.engine + "." + r.klass)
                continue;
            insts += static_cast<double>(r.stats.instructions);
            secs += median(engine_s[i]);
        }
        return secs > 0.0 ? insts / secs / 1e6 : 0.0;
    }

    u64
    digestHash() const
    {
        u64 h = kFnvBasis;
        for (const std::string &line : digest)
            h = fnv1a(h, line + "\n");
        return h;
    }
};

/** Steady-clock stopwatch started at construction. */
struct TimedCall
{
    Clock::time_point start = Clock::now();
    double elapsed() const
    {
        return perfbench::seconds(start, Clock::now());
    }
};

// ---- suite ----------------------------------------------------------

struct SuiteCell
{
    const Workload *w = nullptr;
    bool on_diag = true;
    core::DiagConfig dcfg;
    ooo::OooConfig ocfg;
    harness::RunSpec spec;
    std::string klass;
    std::string id;
};

/** Per-kernel cell layout; kMtSimt8x4 exists only for simt kernels. */
enum SuiteSlot : size_t
{
    kBase8 = 0, kF4C2, kF4C16, kF4C32, kMc12, kMt16x2, kMtSimt8x4
};

struct Suite
{
    std::vector<Workload> kernels;  //!< Rodinia first, then SPEC
    size_t rodinia = 0;
    Workload forced;                //!< kernel 0 with a failing check
    std::vector<SuiteCell> cells;
    std::vector<size_t> first;      //!< first cell of each kernel
};

void
buildSuite(Suite &s, const Options &opt)
{
    std::vector<Workload> rod = workloads::rodiniaSuite();
    std::vector<Workload> spec = workloads::specSuite();
    if (opt.limit > 0) {
        rod.resize(std::min<size_t>(rod.size(), opt.limit));
        spec.resize(std::min<size_t>(spec.size(), opt.limit));
    }
    s.rodinia = rod.size();
    s.kernels = std::move(rod);
    for (Workload &w : spec)
        s.kernels.push_back(std::move(w));
    const auto add = [&s](const Workload &w, bool on_diag,
                          const core::DiagConfig &dcfg,
                          const ooo::OooConfig &ocfg, unsigned threads,
                          bool simt, const char *klass) {
        SuiteCell c;
        c.w = &w;
        c.on_diag = on_diag;
        c.dcfg = dcfg;
        c.ocfg = ocfg;
        c.spec.threads = threads;
        c.spec.use_simt = simt;
        c.spec.tolerate_failures = true;
        c.klass = klass;
        c.id = "suite/" + w.name + "/" +
               (on_diag ? dcfg.name : ocfg.name) + "/t" +
               std::to_string(threads);
        s.cells.push_back(std::move(c));
    };
    const std::vector<core::DiagConfig> st =
        harness::diagSingleThreadConfigs();
    for (const Workload &w : s.kernels) {
        s.first.push_back(s.cells.size());
        add(w, false, {}, ooo::OooConfig::baseline8(), 1, false, "st");
        for (const core::DiagConfig &cfg : st)
            add(w, true, cfg, {}, 1, false, "st");
        add(w, false, {}, ooo::OooConfig::multicore12(),
            harness::kOooMtThreads, false, "mt");
        add(w, true, harness::diagMultiThreadConfig(), {},
            harness::kDiagMtThreads, false, "mt");
        if (!w.asm_simt.empty())
            add(w, true, harness::diagMtSimtConfig(), {},
                harness::kDiagMtSimtThreads, true, "mtsimt");
    }
    if (opt.force_fail) {
        s.forced = s.kernels.front();
        s.forced.check = [](const SparseMemory &) { return false; };
        s.cells.front().w = &s.forced;
    }
}

energy::EnergyReport
energyOf(const core::DiagConfig &cfg, const sim::RunStats &rs)
{
    return energy::diagEnergy(cfg, rs);
}

energy::EnergyReport
energyOf(const ooo::OooConfig &cfg, const sim::RunStats &rs)
{
    return energy::oooEnergy(cfg, rs);
}

/**
 * harness::runOnDiag / runOnOoo replayed step by step, each step in
 * its own span. Must stay call-for-call identical to the harness: the
 * traced digest is compared against the untraced one.
 */
template <class Proc, class ThreadSpecT, class Cfg>
harness::EngineRun
replayRun(const Cfg &cfg, const Workload &w, const harness::RunSpec &spec,
          SpanLog &log, u64 cell, const char *ctor_span,
          const char *run_span)
{
    Program prog;
    {
        Scope s(log, "asm", cell);
        prog = assembler::assemble(spec.use_simt ? w.asm_simt
                                                 : w.asm_serial);
    }
    {
        Scope s(log, "analysis.lint", cell);
        const analysis::LintResult lint = analysis::lintProgram(
            prog, analysis::LintOptions::abiEntry());
        if (lint.errors() > 0)
            fatal("workload %s rejected by the static analyzer:\n%s",
                  w.name.c_str(), analysis::renderText(lint).c_str());
    }
    std::unique_ptr<Proc> proc;
    {
        Scope s(log, ctor_span, cell);
        proc = std::make_unique<Proc>(cfg);
    }
    {
        Scope s(log, "mem.load", cell);
        proc->loadProgram(prog);
    }
    {
        Scope s(log, "workloads.init", cell);
        w.init(proc->memory());
    }
    {
        Scope s(log, "mem.warm", cell);
        proc->warmCaches();
    }
    const unsigned threads = w.partitionable ? spec.threads : 1;
    std::vector<ThreadSpecT> specs;
    for (unsigned t = 0; t < threads; ++t)
        specs.push_back({prog.entry,
                         {{isa::RegId{10}, t}, {isa::RegId{11}, threads}}});
    harness::EngineRun run;
    {
        Scope s(log, run_span, cell);
        run.stats = proc->runThreads(prog, specs, w.max_insts);
    }
    if (run.stats.halted) {
        Scope s(log, "workloads.check", cell);
        run.checked = w.check(proc->memory());
    }
    Scope s(log, "energy", cell);
    run.energy = energyOf(cfg, run.stats);
    return run;
}

EngineResult
runSuiteCell(const SuiteCell &c, SpanLog &log, u64 cell)
{
    EngineResult r;
    r.id = c.id;
    r.engine = c.on_diag ? "diag" : "ooo";
    r.klass = c.klass;
    const TimedCall t;
    harness::EngineRun run;
    if (!log.enabled()) {
        run = c.on_diag ? harness::runOnDiag(c.dcfg, *c.w, c.spec)
                        : harness::runOnOoo(c.ocfg, *c.w, c.spec);
    } else {
        Scope s(log, "cell", cell);
        if (c.on_diag)
            run = replayRun<core::DiagProcessor, core::ThreadSpec>(
                c.dcfg, *c.w, c.spec, log, cell, "diag.ctor", "diag.run");
        else
            run = replayRun<ooo::OooProcessor, ooo::ThreadSpec>(
                c.ocfg, *c.w, c.spec, log, cell, "ooo.ctor", "ooo.run");
    }
    r.engine_s = t.elapsed();
    r.stats = std::move(run.stats);
    r.energy = std::move(run.energy);
    r.ok = r.stats.halted && run.checked;
    return r;
}

/**
 * Golden reference of one kernel's serial variant: it must halt, pass
 * the kernel's own output check, and retire exactly as many
 * instructions as every single-thread serial cell.
 */
EngineResult
goldenReference(const Workload &w, SpanLog &log, u64 cell)
{
    EngineResult r;
    r.id = "suite/" + w.name + "/golden/t1";
    r.engine = "golden";
    r.klass = "st";
    Scope s(log, "cell", cell);
    Program prog;
    {
        Scope a(log, "asm", cell);
        prog = assembler::assemble(w.asm_serial);
    }
    const TimedCall t;
    std::unique_ptr<sim::GoldenSim> gold;
    sim::RunResult rr;
    {
        Scope g(log, "sim.golden", cell);
        gold = std::make_unique<sim::GoldenSim>(prog);
        {
            Scope i(log, "workloads.init", cell);
            w.init(gold->memory());
        }
        gold->setReg(10, 0);
        gold->setReg(11, 1);
        rr = gold->run(w.max_insts);
    }
    r.engine_s = t.elapsed();
    r.stats.instructions = rr.inst_count;
    r.stats.halted = rr.halted;
    if (rr.halted) {
        Scope c(log, "workloads.check", cell);
        r.ok = w.check(gold->memory());
    }
    return r;
}

/** The 13 paper aggregates the suite's cells form (fig_common rules). */
struct Aggregate
{
    const char *figure;
    const char *series;
    double paper;
    double measured;
};

std::vector<Aggregate>
paperAggregates(const Suite &s, const std::vector<EngineResult> &runs)
{
    const auto cyc = [&](size_t k, size_t slot) {
        return static_cast<double>(runs[s.first[k] + slot].stats.cycles);
    };
    const auto pj = [&](size_t k, size_t slot) {
        return runs[s.first[k] + slot].energy.totalPj();
    };
    const auto hasSimt = [&](size_t k) {
        return !s.kernels[k].asm_simt.empty();
    };
    const auto gm = [](const std::vector<double> &v) {
        return v.empty() ? std::nan("") : harness::geomean(v);
    };
    std::vector<Aggregate> out;
    const auto singleThread = [&](const char *fig, size_t lo, size_t hi,
                                  double p2, double p16, double p32) {
        const size_t slots[] = {kF4C2, kF4C16, kF4C32};
        const char *names[] = {"F4C2", "F4C16", "F4C32"};
        const double paper[] = {p2, p16, p32};
        for (int c = 0; c < 3; ++c) {
            std::vector<double> rel;
            for (size_t k = lo; k < hi; ++k)
                rel.push_back(cyc(k, kBase8) / cyc(k, slots[c]));
            out.push_back({fig, names[c], paper[c], gm(rel)});
        }
    };
    const auto multiThread = [&](const char *fig, size_t lo, size_t hi,
                                 double pmt, double psimt) {
        std::vector<double> mt, simt;
        for (size_t k = lo; k < hi; ++k) {
            const double rel_mt = cyc(k, kMc12) / cyc(k, kMt16x2);
            mt.push_back(rel_mt);
            simt.push_back(hasSimt(k) ? cyc(k, kMc12) / cyc(k, kMtSimt8x4)
                                      : rel_mt);
        }
        out.push_back({fig, "MT", pmt, gm(mt)});
        out.push_back({fig, "MT+SIMT", psimt, gm(simt)});
    };
    const size_t n = s.kernels.size();
    singleThread("fig9a", 0, s.rodinia, 0.91, 1.12, 1.12);
    singleThread("fig10a", s.rodinia, n, 0.81, 0.97, 0.97);
    multiThread("fig9b", 0, s.rodinia, 0.95, 1.20);
    multiThread("fig10b", s.rodinia, n, 0.97, 1.15);
    std::vector<double> st, mt, simt;
    for (size_t k = 0; k < s.rodinia; ++k) {
        st.push_back(pj(k, kBase8) / pj(k, kF4C32));
        const double rel_mt = pj(k, kMc12) / pj(k, kMt16x2);
        mt.push_back(rel_mt);
        simt.push_back(hasSimt(k) ? pj(k, kMc12) / pj(k, kMtSimt8x4)
                                  : rel_mt);
    }
    out.push_back({"fig12", "single-thread", 1.51, gm(st)});
    out.push_back({"fig12", "multi-thread", 1.35, gm(mt)});
    out.push_back({"fig12", "MT+SIMT", 1.63, gm(simt)});
    return out;
}

/** 100 * (exp(mean |ln(measured / paper)|) - 1). */
double
paperGapPct(const std::vector<Aggregate> &aggs)
{
    double sum = 0.0;
    for (const Aggregate &a : aggs)
        sum += std::fabs(std::log(a.measured / a.paper));
    return 100.0 * (std::exp(sum / static_cast<double>(aggs.size())) - 1.0);
}

// ---- fuzz -----------------------------------------------------------

struct FuzzCase
{
    std::string id;
    sim::FuzzProgram prog;
    std::vector<u32> inputs;  //!< initial words of the `buf` array
};

u64
mixSeed(u64 seed, u64 i)
{
    u64 z = seed * 0x9e3779b97f4a7c15ull + i + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Odd programs carry simt regions; every fourth one uses RV32F. */
std::vector<FuzzCase>
buildCorpus(u64 seed, unsigned n)
{
    std::vector<FuzzCase> corpus;
    for (unsigned i = 0; i < n; ++i) {
        const u64 s = mixSeed(seed, i);
        sim::FuzzOptions fo;
        fo.seed = s;
        fo.hazard_pct = 0;
        if (i % 2 == 1) {
            fo.use_simt = true;
            fo.simt_regions = 1 + static_cast<unsigned>(s % 3);
            fo.segments = 8;
            fo.use_calls = false;
        } else {
            fo.use_fp = i % 4 == 2;
        }
        FuzzCase c;
        c.id = "fuzz/" + std::to_string(i) + "/" + std::to_string(s);
        c.prog = sim::generateFuzzProgramEx(fo);
        Rng rng(s ^ 0x5eedull);
        c.inputs.resize(fo.buffer_words);
        for (u32 &word : c.inputs)
            word = rng.next32();
        corpus.push_back(std::move(c));
    }
    return corpus;
}

bool
memEqual(const SparseMemory &a, const SparseMemory &b)
{
    std::vector<Addr> pages;
    a.forEachPage([&](Addr base) { pages.push_back(base); });
    b.forEachPage([&](Addr base) { pages.push_back(base); });
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    for (const Addr base : pages)
        for (Addr off = 0; off < SparseMemory::kPageSize; off += 4)
            if (a.read32(base + off) != b.read32(base + off))
                return false;
    return true;
}

void
writeInputs(SparseMemory &mem, Addr buf, const std::vector<u32> &inputs)
{
    for (size_t i = 0; i < inputs.size(); ++i)
        mem.write32(buf + static_cast<Addr>(4 * i), inputs[i]);
}

/** One engine on one fuzz program: constructor through output check. */
template <class Proc, class ThreadSpecT, class Cfg>
EngineResult
fuzzEngine(const FuzzCase &fc, const Program &prog, Addr buf,
           const sim::GoldenSim &gold, const Cfg &cfg, const char *engine,
           bool force_fail, SpanLog &log, u64 cell)
{
    EngineResult r;
    r.id = fc.id + "/" + engine;
    r.engine = engine;
    r.klass = fc.prog.has_simt ? "simt" : "st";
    const std::string ctor_span = std::string(engine) + ".ctor";
    const std::string run_span = std::string(engine) + ".run";
    const TimedCall t;
    std::unique_ptr<Proc> proc;
    {
        Scope s(log, ctor_span.c_str(), cell);
        proc = std::make_unique<Proc>(cfg);
    }
    {
        Scope s(log, "mem.load", cell);
        proc->loadProgram(prog);
    }
    {
        Scope s(log, "workloads.init", cell);
        writeInputs(proc->memory(), buf, fc.inputs);
    }
    {
        Scope s(log, "mem.warm", cell);
        proc->warmCaches();
    }
    {
        Scope s(log, run_span.c_str(), cell);
        r.stats = proc->runThreads(prog, {ThreadSpecT{prog.entry, {}}},
                                   kFuzzMaxInsts);
    }
    r.engine_s = t.elapsed();
    if (r.stats.halted) {
        Scope s(log, "workloads.check", cell);
        // Architectural state only: DiAG retires simt markers
        // differently, so instruction counts need not match.
        bool match =
            !force_fail && memEqual(proc->memory(), gold.memory());
        for (unsigned i = 1; match && i < isa::kNumRegs; ++i)
            match = proc->finalReg(0, static_cast<isa::RegId>(i)) ==
                    gold.reg(static_cast<isa::RegId>(i));
        r.ok = match;
    }
    Scope s(log, "energy", cell);
    r.energy = energyOf(cfg, r.stats);
    return r;
}

/** Golden, DiAG F4C32 and OoO baseline8 on one corpus program. */
std::vector<EngineResult>
runFuzzCell(const FuzzCase &fc, bool force_fail, SpanLog &log, u64 cell)
{
    Scope s(log, "cell", cell);
    Program prog;
    {
        Scope a(log, "asm", cell);
        prog = assembler::assemble(fc.prog.source);
    }
    EngineResult g;
    g.id = fc.id + "/golden";
    g.engine = "golden";
    g.klass = fc.prog.has_simt ? "simt" : "st";
    {
        // Generated programs set up their own registers: nothing is
        // defined at entry.
        Scope l(log, "analysis.lint", cell);
        analysis::LintOptions lo;
        lo.entry_defined = analysis::RegSet{};
        if (analysis::lintProgram(prog, lo).errors() > 0) {
            g.stats.stop_reason = "lint errors";
            return {g};
        }
    }
    const Addr buf = prog.symbol("buf");
    const TimedCall t;
    std::unique_ptr<sim::GoldenSim> gold;
    {
        Scope gs(log, "sim.golden", cell);
        gold = std::make_unique<sim::GoldenSim>(prog);
        {
            Scope i(log, "workloads.init", cell);
            writeInputs(gold->memory(), buf, fc.inputs);
        }
        const sim::RunResult rr = gold->run(kFuzzMaxInsts);
        g.stats.instructions = rr.inst_count;
        g.stats.halted = rr.halted;
        g.ok = rr.halted;
    }
    g.engine_s = t.elapsed();
    if (!g.ok)
        return {g};
    std::vector<EngineResult> out{g};
    out.push_back(fuzzEngine<core::DiagProcessor, core::ThreadSpec>(
        fc, prog, buf, *gold, core::DiagConfig::f4c32(), "diag",
        force_fail, log, cell));
    out.push_back(fuzzEngine<ooo::OooProcessor, ooo::ThreadSpec>(
        fc, prog, buf, *gold, ooo::OooConfig::baseline8(), "ooo", false,
        log, cell));
    return out;
}

// ---- runs ---------------------------------------------------------

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
               1e6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Outcome
{
    Ledger ledger;
    std::vector<double> setup_s;  //!< seconds per set-up, one per sample
    unsigned setups = 0;          //!< set-ups done over all samples
    double cpu_s = 0.0;
    double wall_s = 0.0;  //!< all passes together
    std::vector<Aggregate> aggregates;
};

/**
 * Time kSetupSamples samples of @p per_sample back-to-back set-ups,
 * then repeat a pass until opt.passes passes have run and opt.seconds
 * of wall time are spent. The last set-up's result is what the passes
 * run on.
 */
template <class SetupFn, class PassFn>
void
measure(const Options &opt, unsigned per_sample, Outcome &out,
        SetupFn setup, PassFn pass)
{
    for (int k = 0; k < kSetupSamples; ++k) {
        const TimedCall t;
        for (unsigned r = 0; r < per_sample; ++r)
            setup();
        out.setup_s.push_back(t.elapsed() / per_sample);
        out.setups += per_sample;
    }
    const double cpu0 = cpuSeconds();
    const TimedCall all;
    do {
        const TimedCall t;
        const Pass p = pass();
        out.ledger.addPass(p, t.elapsed(), opt.passes);
    } while (out.ledger.passes < opt.passes || all.elapsed() < opt.seconds);
    out.wall_s = all.elapsed();
    out.cpu_s = cpuSeconds() - cpu0;
}

Outcome
runSuite(const Options &opt, SpanLog &log)
{
    Outcome out;
    std::unique_ptr<Suite> suite;
    const auto setup = [&]() {
        Scope span(log, "setup.suite", 0);
        suite = std::make_unique<Suite>();
        buildSuite(*suite, opt);
    };
    std::vector<EngineResult> first;
    u64 next_cell = 1;
    measure(opt, kSuiteBuildsPerSample, out, setup, [&]() {
        const Suite &s = *suite;
        Pass p;
        const u64 base = next_cell;
        next_cell += s.cells.size() + s.kernels.size();
        for (size_t i = 0; i < s.cells.size(); ++i)
            p.runs.push_back(runSuiteCell(s.cells[i], log, base + i));
        p.cells = p.runs.size();
        for (const EngineResult &r : p.runs)
            p.unit_ms.push_back(r.engine_s * 1e3);
        for (size_t k = 0; k < s.kernels.size(); ++k) {
            EngineResult g = goldenReference(
                s.kernels[k], log, base + s.cells.size() + k);
            for (size_t slot = kBase8; slot <= kF4C32; ++slot)
                if (p.runs[s.first[k] + slot].stats.instructions !=
                    g.stats.instructions)
                    g.ok = false;
            p.unit_ms.push_back(g.engine_s * 1e3);
            p.runs.push_back(std::move(g));
        }
        if (first.empty())
            first = p.runs;
        return p;
    });
    const Suite &s = *suite;
    const bool complete = std::all_of(
        first.begin(), first.begin() + static_cast<long>(s.cells.size()),
        [](const EngineResult &r) {
            return r.stats.halted && r.stats.cycles > 0 &&
                   r.energy.totalPj() > 0.0;
        });
    if (complete)
        out.aggregates = paperAggregates(s, first);
    return out;
}

Outcome
runFuzz(const Options &opt, SpanLog &log)
{
    Outcome out;
    const unsigned n = opt.limit > 0 ? opt.limit : kFuzzPrograms;
    std::vector<FuzzCase> corpus;
    const auto setup = [&]() {
        Scope span(log, "sim.fuzzgen", 0);
        corpus = buildCorpus(opt.seed, n);
    };
    u64 next_cell = 1;
    measure(opt, 1, out, setup, [&]() {
        Pass p;
        for (size_t i = 0; i < corpus.size(); ++i) {
            const TimedCall t;
            std::vector<EngineResult> runs = runFuzzCell(
                corpus[i], opt.force_fail && i == 0, log, next_cell++);
            p.unit_ms.push_back(t.elapsed() * 1e3);
            for (EngineResult &r : runs)
                p.runs.push_back(std::move(r));
        }
        p.cells = p.unit_ms.size();
        return p;
    });
    return out;
}

/** Flat JSON object writer: keys in insertion order. */
class JsonObject
{
  public:
    void
    add(const std::string &key, const std::string &raw)
    {
        body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + raw;
    }
    void add(const std::string &key, double v) { add(key, num(v)); }
    void str(const std::string &key, const std::string &v)
    {
        add(key, quote(v));
    }
    std::string text() const { return "{" + body_ + "}"; }

    static std::string
    quote(const std::string &s)
    {
        std::string q = "\"";
        for (const char c : s) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += c;
        }
        return q + "\"";
    }

  private:
    std::string body_;
};

std::string
report(const Options &opt, const Outcome &out, const SpanLog &log)
{
    const Ledger &l = out.ledger;
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    JsonObject m;
    const std::vector<double> cell_ms = l.cellMs();
    m.add("wall_s", l.bestPassSeconds());
    m.add("wall_median_s", l.medianPassSeconds());
    m.add("setup_s", median(out.setup_s));
    m.add("peak_rss_mb", peakRssMb());
    m.add("cell_ms_p50", percentile(cell_ms, 0.50));
    m.add("cell_ms_p90", percentile(cell_ms, 0.90));
    m.add("cell_ms_p99", percentile(cell_ms, 0.99));
    m.add("fail_ratio", static_cast<double>(l.failed) /
                            static_cast<double>(std::max<u64>(1, l.attempted)));
    m.add("diag_minst_per_s", l.minstPerS("diag"));
    m.add("ooo_minst_per_s", l.minstPerS("ooo"));
    m.add("golden_minst_per_s", l.minstPerS("golden"));
    if (!out.aggregates.empty())
        m.add("paper_gap_pct", paperGapPct(out.aggregates));
    m.add("host.cores_busy", out.cpu_s / (out.wall_s * cpus));
    for (const std::string &key : l.rateKeys())
        m.add((key.rfind("golden", 0) == 0 ? "sim." : "") + key +
                  ".minst_per_s",
              l.minstPerS(key));
    for (const auto &[key, v] : l.counts)
        m.add(key, v);
    const auto ratio = [&](const char *name, const char *num_key,
                           const char *base_key) {
        const auto n = l.counts.find(num_key);
        const auto b = l.counts.find(base_key);
        if (n != l.counts.end() && b != l.counts.end() && b->second > 0)
            m.add(name, n->second / b->second);
    };
    ratio("diag.reuse_ratio", "diag.reuse_activations", "diag.activations");
    ratio("ooo.mispredict_ratio", "ooo.mispredicts", "ooo.bp_lookups");
    if (log.enabled()) {
        for (const auto &[name, t] : log.totals()) {
            // Set-up spans repeat per set-up, the rest per pass.
            const bool setup = name == "setup.suite" || name == "sim.fuzzgen";
            const double per = static_cast<double>(setup ? out.setups
                                                         : l.passes);
            const std::string key = name == "cell" ? "harness.self" : name;
            m.add(key + ".ms", t.self_ms / per);
            if (name == "asm")
                m.add("asm.calls", static_cast<double>(t.calls) / per);
        }
        m.add("trace.wall_s", l.bestPassSeconds());
    }

    JsonObject samples;
    samples.add("passes", static_cast<double>(l.passes));
    samples.add("timed_passes",
                static_cast<double>(std::min(l.passes, opt.passes)));
    samples.add("setup_samples", static_cast<double>(out.setup_s.size()));
    samples.add("setups", static_cast<double>(out.setups));
    samples.add("cells", static_cast<double>(cell_ms.size()));
    std::string passes = "[";
    for (const double v : l.pass_s)
        passes += (passes.size() > 1 ? ", " : "") + num(v);
    samples.add("pass_s", passes + "]");

    std::string aggs = "[";
    for (const Aggregate &a : out.aggregates) {
        JsonObject o;
        o.str("figure", a.figure);
        o.str("series", a.series);
        o.add("paper", a.paper);
        o.add("measured", a.measured);
        aggs += (aggs.size() > 1 ? ", " : "") + o.text();
    }
    aggs += "]";
    std::string failures = "[";
    for (const std::string &id : l.failures)
        failures += (failures.size() > 1 ? ", " : "") + JsonObject::quote(id);
    failures += "]";

    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(l.digestHash()));
    JsonObject top;
    top.str("workload", opt.workload);
    top.add("seed", static_cast<double>(opt.seed));
    top.add("trace", opt.trace ? 1.0 : 0.0);
    top.str("build_type", PERFBENCH_BUILD_TYPE);
    top.add("optimized", kOptimized ? "true" : "false");
    top.add("num_cpus", static_cast<double>(cpus));
    top.add("attempted", static_cast<double>(l.attempted));
    top.add("failed", static_cast<double>(l.failed));
    top.str("digest", digest);
    top.add("samples", samples.text());
    top.add("metrics", m.text());
    top.add("aggregates", aggs);
    top.add("failures", failures);
    return top.text();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    SpanLog log(opt.trace);
    const Outcome out =
        opt.workload == "suite" ? runSuite(opt, log) : runFuzz(opt, log);
    for (const std::string &id : out.ledger.failures)
        warn("failed: %s", id.c_str());
    if (!opt.digest_out.empty()) {
        std::FILE *f = std::fopen(opt.digest_out.c_str(), "w");
        fatal_if(!f, "cannot write %s", opt.digest_out.c_str());
        for (const std::string &line : out.ledger.digest)
            std::fprintf(f, "%s\n", line.c_str());
        fatal_if(std::fclose(f) != 0, "cannot write %s",
                 opt.digest_out.c_str());
    }
    if (opt.trace && !opt.trace_out.empty())
        fatal_if(!log.writeChromeTrace(opt.trace_out, opt.workload),
                 "cannot write %s", opt.trace_out.c_str());
    std::printf("%s\n", report(opt, out, log).c_str());
    return 0;
}
