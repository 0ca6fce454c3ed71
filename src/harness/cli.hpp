/**
 * @file
 * Shared command-line parsing for the tools/diag_*.cpp CLIs.
 *
 * Every tool used to hand-roll the same argv loop (--jobs, --seed,
 * --json, --sarif, --config, "missing value for X", usage-on-unknown).
 * ArgParser is the declarative replacement: a tool registers its flags
 * against the fields of its options struct, and parse() handles value
 * fetching, numeric conversion, --help, unknown-flag diagnostics, and
 * the usage text — keeping the flag name, its help line, and its
 * target in one place.
 *
 * AnalyzerCli goes one step further for the four analyzers, which
 * also share their inputs, their sweep and their exit status.
 */
#ifndef DIAG_HARNESS_CLI_HPP
#define DIAG_HARNESS_CLI_HPP

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "common/types.hpp"
#include "diag/config.hpp"
#include "workloads/workload.hpp"

namespace diag::harness
{

/** Declarative argv parser; see the file comment for the contract. */
class ArgParser
{
  public:
    /** What main() should do after parse(). */
    enum class Status
    {
        Run,    //!< arguments consumed; run the tool
        Help,   //!< --help: usage printed, exit 0
        /** Bad invocation — unknown flag, duplicate flag, missing or
         *  malformed value, unexpected operand. parse() already
         *  printed a one-line "error: ..." plus the usage text. The
         *  analyzers (AnalyzerCli) exit 2 on this status, every
         *  other tool exits 1. */
        Usage,
    };

    /**
     * @p tool is the program name for the synopsis line and
     * @p operands_name, when nonempty, names the bare (non-dash)
     * operands in the synopsis (e.g. "[program.s ...]").
     */
    ArgParser(std::string tool, std::string operands_name = "");

    /** --name (no value). */
    ArgParser &flag(std::string name, bool *target, std::string help);
    /** --name VALUE variants. */
    ArgParser &option(std::string name, std::string *target,
                      std::string metavar, std::string help);
    ArgParser &option(std::string name, unsigned *target,
                      std::string metavar, std::string help);
    ArgParser &option(std::string name, u64 *target,
                      std::string metavar, std::string help);
    ArgParser &option(std::string name, double *target,
                      std::string metavar, std::string help);
    /** Collect bare operands (file paths) into @p target; without
     *  this registration a bare operand is a usage error. */
    ArgParser &operands(std::vector<std::string> *target);

    // The flags every tool spells identically, help text included.
    ArgParser &configFlag(std::string *target);
    ArgParser &jobsFlag(unsigned *target);
    ArgParser &seedFlag(u64 *target);
    ArgParser &jsonFlag(bool *target);
    ArgParser &sarifFlag(bool *target);
    ArgParser &werrorFlag(bool *target);

    /** Print the synopsis and one help line per registered flag. */
    void usage() const;

    /**
     * Consume argv. Prints usage itself for Help/Usage outcomes;
     * Usage is additionally preceded by a one-line diagnostic on
     * stderr naming the offending flag or value. Every registered
     * flag may appear at most once (operands may repeat).
     */
    Status parse(int argc, char **argv) const;

    /** Print "tool: error: ..." + usage, and yield Status::Usage. */
    Status usageError(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));

  private:
    struct Flag
    {
        enum class Kind : u8
        {
            Bool,
            String,
            Unsigned,
            U64,
            Double,
        };
        std::string name;
        Kind kind;
        void *target;
        std::string metavar;
        std::string help;
    };

    std::string tool_;
    std::string operands_name_;
    std::vector<Flag> flags_;
    std::vector<std::string> *operands_ = nullptr;

    ArgParser &add(std::string name, Flag::Kind kind, void *target,
                   std::string metavar, std::string help);
};

/**
 * The DiAG preset named on a --config flag (I4C2, F4C2, F4C16,
 * F4C32); fatal() on anything else. Shared by every tool.
 */
core::DiagConfig configByName(const std::string &name);

/**
 * Non-fatal preset lookup for long-running callers (the service
 * layer) that must classify a bad name as a malformed request
 * instead of exiting: true and *out filled when @p name is a known
 * preset, false otherwise.
 */
bool tryConfigByName(const std::string &name, core::DiagConfig *out);

/** @p base with its ring count overridden when @p rings != 0. */
core::DiagConfig configWithRings(const std::string &name,
                                 unsigned rings);

/**
 * The driver of the four analyzer CLIs (diag-lint, diag-bound,
 * diag-stream, diag-verify). It owns what they share: the flags
 * --workload, --all-workloads, --config, --rings, --json, --sarif and
 * --werror plus the program-file operands, the unit list, the host
 * sweep, printing in unit order, the one SARIF document and the exit
 * status. A tool registers its own flags on parser() and hands run()
 * one function that analyzes one unit.
 *
 * Units come in a fixed order: each workload's serial variant, then
 * its simt variant (--all-workloads is Rodinia, then SPEC), then the
 * program files, which get no ABI entry. Blocks print in that order,
 * so output is byte-identical for any job count. Under --sarif the
 * blocks are dropped and one SARIF document carries every unit's
 * findings.
 *
 * Exit status: 0 when every unit is clean; 1 when a unit's findings
 * fail the bar (an error, or a warning under --werror) or its
 * function reports a failure (a failed validation, a refuted
 * property); 2 on a usage mistake (unknown flag, bad value, no
 * input). An unknown workload or preset name is fatal() (exit 1).
 */
class AnalyzerCli
{
  public:
    /** One analysis unit: a workload variant or a program file. */
    struct Unit
    {
        std::string label;  //!< "NAME (serial)", "NAME (simt)" or path
        std::string source; //!< assembly text
        const workloads::Workload *w = nullptr; //!< null for a file
        bool simt = false;  //!< the simt variant of w
        /** harness::lintOptionsFor(config()); a file's has no ABI
         *  entry. */
        analysis::LintOptions lint;
    };

    /** What one unit gives back. */
    struct Outcome
    {
        std::string printed;           //!< its text or --json block
        analysis::LintResult findings; //!< for the bar and SARIF
        bool failed = false; //!< a failure the findings do not carry
    };

    using UnitFn = std::function<Outcome(const Unit &)>;

    /** @p verb says what the tool does to a unit ("lint", "analyze",
     *  "verify") in the help and no-input lines. */
    AnalyzerCli(std::string tool, const std::string &verb);
    AnalyzerCli(const AnalyzerCli &) = delete;
    AnalyzerCli &operator=(const AnalyzerCli &) = delete;

    /** For the tool's own flags; --werror and the operands follow
     *  them in the usage text. */
    ArgParser &parser() { return ap_; }

    /** Parse argv: the exit status when main() should stop (0 after
     *  --help, 2 on a usage mistake), nullopt to go on. */
    std::optional<int> parse(int argc, char **argv);

    bool json() const { return json_; }
    /** The DiAG configuration --config and --rings name. */
    core::DiagConfig config() const;
    /** True when @p findings fail the exit bar. */
    bool failsBar(const analysis::LintResult &findings) const;

    /** Run @p fn on every unit over up to @p jobs host threads
     *  (0 = one per hardware thread), print, and return the exit
     *  status. */
    int run(unsigned jobs, const UnitFn &fn) const;

  private:
    ArgParser ap_;
    std::string tool_;
    std::string verb_;
    std::string config_ = "F4C32";
    std::string workload_;
    std::vector<std::string> files_;
    unsigned rings_ = 0; //!< 0 = keep the preset's ring count
    bool all_workloads_ = false;
    bool json_ = false;
    bool sarif_ = false;
    bool werror_ = false;
};

} // namespace diag::harness

#endif // DIAG_HARNESS_CLI_HPP
