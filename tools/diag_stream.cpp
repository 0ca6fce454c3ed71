/**
 * @file
 * diag-stream: static stream & locality analyzer with
 * trace-differential validation.
 *
 *   diag-stream [options] [program.s ...]
 *     --workload NAME        analyze a built-in benchmark kernel
 *     --all-workloads        analyze every bundled kernel
 *     --config I4C2|F4C2|F4C16|F4C32   DiAG preset (default F4C32)
 *     --rings N              override the ring count of the preset
 *     --json                 emit machine-readable JSON
 *     --sarif                emit SARIF 2.1.0 (findings only)
 *     --validate             record per-instruction addresses on the
 *                            simulator and replay them against the
 *                            predicted affine maps (simt units)
 *     --jobs N               host threads for the sweep (default: one
 *                            per hardware thread); output stays
 *                            byte-identical for any N
 *     --werror               treat warnings as errors (exit status)
 *
 * Analysis mode classifies every memory access of every simt region
 * (and serial single-block loop) as affine / indirect / pointer-chase
 * / unknown, with proven strides, footprint and reuse estimates, L1D
 * bank-conflict verdicts, and a prefetchability class per stream.
 *
 * Validation mode additionally runs each simt workload unit with the
 * address recorder attached: any proven-affine stream whose observed
 * address sequence deviates from the predicted map, or any proven
 * conflict-free stream with an observed same-bank consecutive pair,
 * fails the unit (a soundness bug in the analyzer).
 *
 * The inputs, the sweep and the output order are harness::AnalyzerCli's.
 * Exit status: 0 when no errors and validation holds (no warnings
 * either under --werror), 1 otherwise, 2 on usage mistakes.
 */
#include <optional>

#include "analysis/lint.hpp"
#include "analysis/stream.hpp"
#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "harness/cli.hpp"
#include "harness/validate_stream.hpp"

using namespace diag;

namespace
{

struct Options
{
    unsigned jobs = 0; //!< host threads for the sweep (0 = auto)
    bool validate = false;
};

/** Analyze (and under --validate replay) one unit. */
harness::AnalyzerCli::Outcome
analyzeUnit(const harness::AnalyzerCli &cli, const Options &opt,
            const harness::AnalyzerCli::Unit &u)
{
    harness::AnalyzerCli::Outcome o;
    const Program prog = assembler::assemble(u.source);
    const analysis::StreamResult sr =
        analysis::analyzeStreams(prog, u.lint, o.findings);
    if (cli.json())
        o.printed = detail::vformat(
            "{\"unit\": \"%s\",\n\"diags\": %s,\n\"streams\": %s}\n",
            u.label.c_str(), analysis::renderJson(o.findings).c_str(),
            analysis::renderStreamJson(sr).c_str());
    else
        o.printed = detail::vformat(
            "== %s ==\n%s%s", u.label.c_str(),
            analysis::renderText(o.findings).c_str(),
            analysis::renderStreamText(sr).c_str());
    // Validation replays simt regions, so only simt workload units
    // simulate; serial units are static-only.
    if (opt.validate && u.w != nullptr && u.simt &&
        !cli.failsBar(o.findings)) {
        const harness::StreamValidation rep =
            harness::validateStream(cli.config(), *u.w);
        o.printed += cli.json()
                         ? harness::renderStreamValidationJson(rep)
                         : harness::renderStreamValidation(rep);
        o.failed = !rep.ok();
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    harness::AnalyzerCli cli("diag-stream", "analyze");
    cli.parser()
        .flag("--validate", &opt.validate,
              "replay recorded addresses against the predicted maps")
        .jobsFlag(&opt.jobs);
    if (const std::optional<int> done = cli.parse(argc, argv))
        return *done;
    return cli.run(opt.jobs,
                   [&cli, &opt](const harness::AnalyzerCli::Unit &u) {
                       return analyzeUnit(cli, opt, u);
                   });
}
