/**
 * @file
 * diag-bound: static performance-bound & memory-dependence analyzer
 * with simulator cross-validation.
 *
 *   diag-bound [options] [program.s ...]
 *     --workload NAME        analyze a built-in benchmark kernel
 *     --all-workloads        analyze every bundled kernel
 *     --config I4C2|F4C2|F4C16|F4C32   DiAG preset (default F4C32)
 *     --rings N              override the ring count of the preset
 *     --json                 emit machine-readable JSON
 *     --sarif                emit SARIF 2.1.0 (findings only)
 *     --validate             simulate and cross-check the bound model
 *     --slack FRAC           allowed prediction error (default 0.15)
 *     --jobs N               host threads for the sweep (default: one
 *                            per hardware thread); output stays
 *                            byte-identical for any N
 *     --werror               treat warnings as errors (exit status)
 *
 * Analysis mode prints the diag-lint findings (including the memdep
 * pass: load classification, cross-iteration races, CAM pressure)
 * plus the static schedule model: per-block critical paths, resident
 * loop iteration periods, and per-simt-region fill/II bounds.
 *
 * Validation mode additionally runs the workload on the simulator and
 * compares the measured per-region cycles against the model: measured
 * below the *provable* lower bound fails (that is a simulator timing
 * bug), and a prediction off by more than --slack fails (model drift).
 *
 * The inputs, the sweep and the output order are harness::AnalyzerCli's.
 * Exit status: 0 when no errors and validation holds (no warnings
 * either under --werror), 1 otherwise, 2 on usage mistakes.
 */
#include <optional>
#include <string>
#include <utility>

#include "analysis/lint.hpp"
#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "harness/cli.hpp"
#include "harness/validate.hpp"

using namespace diag;

namespace
{

struct Options
{
    unsigned jobs = 0; //!< host threads for the sweep (0 = auto)
    double slack = 0.15;
    bool validate = false;
};

std::string
renderBoundText(const analysis::BoundResult &b)
{
    std::string out;
    for (const auto &blk : b.blocks)
        out += detail::vformat(
            "block 0x%08x..0x%08x: %u insts, critical path >= %llu "
            "cycles\n",
            blk.first, blk.last, blk.insts,
            static_cast<unsigned long long>(blk.crit_lb));
    for (const auto &l : b.loops) {
        out += detail::vformat(
            "loop 0x%08x..0x%08x: %u insts over %u lines, %s", l.head,
            l.tail, l.insts, l.lines,
            l.resident ? "resident (datapath reuse)" : "not resident");
        if (l.iter_pred > 0)
            out += detail::vformat(", ~%.1f cycles/iteration",
                                   l.iter_pred);
        out += "\n";
    }
    for (const auto &r : b.regions)
        out += detail::vformat(
            "simt region 0x%08x..0x%08x: %u-inst body over %u lines, "
            "interval %llu, fill >= %llu, II floor %.2f "
            "(lsu %.2f, unpipelined %.2f, replicas <= %u)\n",
            r.simt_s_pc, r.simt_e_pc, r.body_insts, r.lines,
            static_cast<unsigned long long>(r.interval),
            static_cast<unsigned long long>(r.fill_lb), r.resource_ii,
            r.lsu_ii, r.unpip_ii, r.max_replicas);
    return out;
}

/** Analyze (and under --validate simulate) one unit. */
harness::AnalyzerCli::Outcome
analyzeUnit(const harness::AnalyzerCli &cli, const Options &opt,
            const harness::AnalyzerCli::Unit &u)
{
    harness::AnalyzerCli::Outcome o;
    const Program prog = assembler::assemble(u.source);
    analysis::ProgramAnalysis an = analysis::analyzeProgram(prog, u.lint);
    if (cli.json())
        o.printed = detail::vformat(
            "{\"unit\": \"%s\",\n\"lint\": %s,\n\"bound\": %s}\n",
            u.label.c_str(), analysis::renderJson(an.lint).c_str(),
            analysis::renderBoundJson(an.bound).c_str());
    else
        o.printed = detail::vformat(
            "== %s ==\n%s%s", u.label.c_str(),
            analysis::renderText(an.lint).c_str(),
            renderBoundText(an.bound).c_str());
    if (opt.validate && u.w != nullptr && !cli.failsBar(an.lint)) {
        const harness::ValidationReport rep = harness::validateBound(
            cli.config(), *u.w, u.simt, opt.slack);
        o.printed += cli.json() ? harness::renderValidationJson(rep)
                                : harness::renderValidation(rep);
        o.failed = !rep.ok();
    }
    o.findings = std::move(an.lint);
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    harness::AnalyzerCli cli("diag-bound", "analyze");
    cli.parser()
        .flag("--validate", &opt.validate,
              "simulate and cross-check the model")
        .option("--slack", &opt.slack, "FRAC",
                "allowed prediction error (default 0.15)")
        .jobsFlag(&opt.jobs);
    if (const std::optional<int> done = cli.parse(argc, argv))
        return *done;
    return cli.run(opt.jobs,
                   [&cli, &opt](const harness::AnalyzerCli::Unit &u) {
                       return analyzeUnit(cli, opt, u);
                   });
}
