/**
 * @file
 * diag-lint: static dataflow analyzer for assembled DiAG programs.
 *
 *   diag-lint [options] [program.s ...]
 *     --workload NAME        lint a built-in benchmark kernel
 *     --all-workloads        lint every bundled kernel (both variants)
 *     --config I4C2|F4C2|F4C16|F4C32   DiAG preset (default F4C32)
 *     --rings N              override the ring count of the preset
 *     --json                 emit machine-readable JSON
 *     --sarif                emit SARIF 2.1.0 (one document per run)
 *     --werror               treat warnings as errors (exit status)
 *
 * Passes: CFG construction (unreachable code, control flow leaving the
 * image), register-lane liveness (undefined-lane reads, dead writes,
 * x0 destinations), SIMT region legality (the exact rules the control
 * unit applies at runtime), and datapath-reuse diagnostics (loop spans
 * vs. loaded clusters, I-line straddles).
 *
 * The inputs, the sweep and the output order are harness::AnalyzerCli's.
 * Exit status: 0 when no errors (no warnings either under --werror),
 * 1 when findings fail that bar, 2 on usage mistakes.
 */
#include <optional>
#include <string>

#include "analysis/lint.hpp"
#include "asm/assembler.hpp"
#include "harness/cli.hpp"

using namespace diag;

int
main(int argc, char **argv)
{
    harness::AnalyzerCli cli("diag-lint", "lint");
    if (const std::optional<int> done = cli.parse(argc, argv))
        return *done;
    return cli.run(/*jobs=*/0, [&cli](const harness::AnalyzerCli::Unit &u) {
        harness::AnalyzerCli::Outcome o;
        const Program prog = assembler::assemble(u.source);
        o.findings = analysis::lintProgram(prog, u.lint);
        o.printed = cli.json()
                        ? analysis::renderJson(o.findings) + "\n"
                        : "== " + u.label + " ==\n" +
                              analysis::renderText(o.findings);
        return o;
    });
}
