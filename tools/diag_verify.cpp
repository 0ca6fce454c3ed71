/**
 * @file
 * diag-verify: abstract-interpretation program verifier with a
 * SIMT-aware differential fuzzer checking its own soundness.
 *
 * Verification mode (default) decides, per program, the safety
 * properties of analysis/verify.hpp — control safety, div-by-zero /
 * alignment / bounds freedom, and per-simt-region race and deadlock
 * freedom — each as proven / refuted / unknown, and prints the
 * verdicts plus any findings. Workload units verify against the
 * kernel's declared data map (Workload::data_ranges).
 *
 * Fuzz mode (--fuzz N) generates N seeded programs (scalar trap
 * hazards and simt regions with injected races) and cross-checks
 * every verdict against the golden reference, the DiAG model, and
 * the OoO baseline (harness::validateVerify): an unsound proof or a
 * bogus refutation fails the corpus. Failing programs can be dumped
 * for CI artifact upload with --dump-failing.
 *
 * Verification goes through harness::AnalyzerCli (inputs, sweep,
 * output order); --fuzz runs outside it. Exit status: 0 when every
 * unit verifies clean (or the whole corpus holds up), 1 on refuted
 * properties / unsound verdicts (or warnings under --werror), 2 on
 * usage mistakes.
 */
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>

#include "analysis/verify.hpp"
#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "diag/config.hpp"
#include "harness/cli.hpp"
#include "harness/validate_verify.hpp"

using namespace diag;

namespace
{

struct Options
{
    std::string profile = "mixed";
    std::string dump_dir;
    unsigned jobs = 0;   //!< host threads for the sweep (0 = auto)
    unsigned fuzz = 0;   //!< 0 = verification mode
    u64 fuzz_timeout_ms = 60000; //!< host watchdog per fuzz seed
    u64 seed = 1;
    bool verbose = false;
};

/** Verify one unit against its workload's data map. */
harness::AnalyzerCli::Outcome
verifyUnit(const harness::AnalyzerCli &cli,
           const harness::AnalyzerCli::Unit &u)
{
    analysis::VerifyOptions vo;
    vo.lint = u.lint;
    if (u.w != nullptr)
        vo.extra_ranges = u.w->data_ranges;
    const Program prog = assembler::assemble(u.source);
    analysis::VerifyResult res = analysis::verifyProgram(prog, vo);
    harness::AnalyzerCli::Outcome o;
    if (cli.json())
        o.printed = detail::vformat(
            "{\"unit\": \"%s\",\n\"verify\": %s}\n", u.label.c_str(),
            analysis::renderVerifyJson(res).c_str());
    else
        o.printed =
            detail::vformat("== %s ==\n%s", u.label.c_str(),
                            analysis::renderVerifyText(res).c_str());
    o.failed = !res.clean();
    o.findings = std::move(res.report);
    return o;
}

harness::FuzzProfile
profileByName(const std::string &name)
{
    if (name == "scalar")
        return harness::FuzzProfile::Scalar;
    if (name == "simt")
        return harness::FuzzProfile::Simt;
    if (name == "mixed")
        return harness::FuzzProfile::Mixed;
    fatal("unknown fuzz profile '%s' (scalar|simt|mixed)",
          name.c_str());
}

/** The --fuzz mode: a seeded differential corpus. */
int
runFuzz(const Options &opt, const core::DiagConfig &cfg)
{
    const harness::VerifyFuzzReport rep = harness::runVerifyFuzz(
        cfg, opt.seed, opt.fuzz, opt.jobs, profileByName(opt.profile),
        opt.fuzz_timeout_ms);
    std::fputs(harness::renderVerifyFuzz(rep, opt.verbose).c_str(),
               stdout);
    if (!opt.dump_dir.empty() && !rep.ok()) {
        std::filesystem::create_directories(opt.dump_dir);
        for (const harness::VerifyCheck &c : rep.checks) {
            if (c.ok())
                continue;
            const std::string path = detail::vformat(
                "%s/seed_%llu.s", opt.dump_dir.c_str(),
                static_cast<unsigned long long>(c.seed));
            std::ofstream out(path);
            out << "# diag-verify fuzz failure, seed "
                << c.seed << "\n";
            for (const std::string &f : c.failures)
                out << "#   " << f << "\n";
            if (!c.engines_match)
                out << "#   engine state mismatch vs golden\n";
            out << c.source;
            std::printf("wrote %s\n", path.c_str());
        }
    }
    return rep.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    harness::AnalyzerCli cli("diag-verify", "verify");
    cli.parser()
        .option("--fuzz", &opt.fuzz, "N",
                "cross-validate verdicts on N generated programs")
        .option("--profile", &opt.profile, "scalar|simt|mixed",
                "fuzz generator profile (default mixed)")
        .option("--fuzz-timeout-ms", &opt.fuzz_timeout_ms, "MS",
                "wall-clock cap per fuzz seed, 0 = uncapped "
                "(default 60000)")
        .seedFlag(&opt.seed)
        .option("--dump-failing", &opt.dump_dir, "DIR",
                "write failing fuzz programs into DIR")
        .flag("--verbose", &opt.verbose,
              "per-seed fuzz result lines")
        .jobsFlag(&opt.jobs);
    if (const std::optional<int> done = cli.parse(argc, argv))
        return *done;
    if (opt.fuzz > 0)
        return runFuzz(opt, cli.config());
    return cli.run(opt.jobs, [&cli](const harness::AnalyzerCli::Unit &u) {
        return verifyUnit(cli, u);
    });
}
