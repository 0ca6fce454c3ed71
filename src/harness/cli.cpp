#include "harness/cli.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/log.hpp"
#include "harness/validate.hpp"
#include "host/parallel.hpp"

namespace diag::harness
{

ArgParser::ArgParser(std::string tool, std::string operands_name)
    : tool_(std::move(tool)), operands_name_(std::move(operands_name))
{
}

ArgParser &
ArgParser::add(std::string name, Flag::Kind kind, void *target,
               std::string metavar, std::string help)
{
    flags_.push_back({std::move(name), kind, target,
                      std::move(metavar), std::move(help)});
    return *this;
}

ArgParser &
ArgParser::flag(std::string name, bool *target, std::string help)
{
    return add(std::move(name), Flag::Kind::Bool, target, "",
               std::move(help));
}

ArgParser &
ArgParser::option(std::string name, std::string *target,
                  std::string metavar, std::string help)
{
    return add(std::move(name), Flag::Kind::String, target,
               std::move(metavar), std::move(help));
}

ArgParser &
ArgParser::option(std::string name, unsigned *target,
                  std::string metavar, std::string help)
{
    return add(std::move(name), Flag::Kind::Unsigned, target,
               std::move(metavar), std::move(help));
}

ArgParser &
ArgParser::option(std::string name, u64 *target, std::string metavar,
                  std::string help)
{
    return add(std::move(name), Flag::Kind::U64, target,
               std::move(metavar), std::move(help));
}

ArgParser &
ArgParser::option(std::string name, double *target,
                  std::string metavar, std::string help)
{
    return add(std::move(name), Flag::Kind::Double, target,
               std::move(metavar), std::move(help));
}

ArgParser &
ArgParser::operands(std::vector<std::string> *target)
{
    operands_ = target;
    return *this;
}

ArgParser &
ArgParser::configFlag(std::string *target)
{
    return option("--config", target, "I4C2|F4C2|F4C16|F4C32",
                  "DiAG preset (default " + *target + ")");
}

ArgParser &
ArgParser::jobsFlag(unsigned *target)
{
    return option("--jobs", target, "N",
                  "host threads (default: hardware concurrency); "
                  "output is byte-identical for any N");
}

ArgParser &
ArgParser::seedFlag(u64 *target)
{
    return option("--seed", target, "S",
                  "base seed; reruns are bit-identical");
}

ArgParser &
ArgParser::jsonFlag(bool *target)
{
    return flag("--json", target, "emit machine-readable JSON");
}

ArgParser &
ArgParser::sarifFlag(bool *target)
{
    return flag("--sarif", target,
                "emit SARIF 2.1.0 (findings only)");
}

ArgParser &
ArgParser::werrorFlag(bool *target)
{
    return flag("--werror", target,
                "treat warnings as errors (exit status)");
}

void
ArgParser::usage() const
{
    std::printf("usage: %s [options]%s%s\n", tool_.c_str(),
                operands_name_.empty() ? "" : " ",
                operands_name_.c_str());
    for (const Flag &f : flags_) {
        std::string head = "  " + f.name;
        if (!f.metavar.empty())
            head += " " + f.metavar;
        if (head.size() < 24)
            head.resize(24, ' ');
        else
            head += " ";
        std::printf("%s%s\n", head.c_str(), f.help.c_str());
    }
}

ArgParser::Status
ArgParser::usageError(const char *fmt, ...) const
{
    va_list ap;
    va_start(ap, fmt);
    char msg[256];
    std::vsnprintf(msg, sizeof(msg), fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "%s: error: %s\n", tool_.c_str(), msg);
    usage();
    return Status::Usage;
}

ArgParser::Status
ArgParser::parse(int argc, char **argv) const
{
    // Flags are set-once: a duplicate is a confused invocation (a
    // forgotten edit, a copy-pasted pair with different values) and
    // which one wins should never be a silent coin flip.
    std::vector<const Flag *> seen;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return Status::Help;
        }
        if (!arg.empty() && arg[0] != '-') {
            if (operands_ == nullptr)
                return usageError("unexpected operand '%s'",
                                  arg.c_str());
            operands_->push_back(arg);
            continue;
        }
        // Both "--flag VALUE" and "--flag=VALUE" are accepted.
        std::string inline_val;
        bool has_inline = false;
        if (const size_t eq = arg.find('=');
            eq != std::string::npos) {
            inline_val = arg.substr(eq + 1);
            arg.resize(eq);
            has_inline = true;
        }
        const Flag *match = nullptr;
        for (const Flag &f : flags_)
            if (f.name == arg) {
                match = &f;
                break;
            }
        if (match == nullptr)
            return usageError("unknown flag '%s'", arg.c_str());
        if (std::find(seen.begin(), seen.end(), match) != seen.end())
            return usageError("duplicate flag %s", arg.c_str());
        seen.push_back(match);
        if (match->kind == Flag::Kind::Bool) {
            if (has_inline)
                return usageError("flag %s takes no value",
                                  arg.c_str());
            *static_cast<bool *>(match->target) = true;
            continue;
        }
        if (!has_inline && i + 1 >= argc)
            return usageError("missing value for %s", arg.c_str());
        const std::string value =
            has_inline ? inline_val : argv[++i];
        // Numeric flags must consume the whole value: "12x", "", and
        // out-of-range all get the same crisp diagnostic instead of a
        // silent truncation or an uncaught std::invalid_argument.
        try {
            size_t used = 0;
            switch (match->kind) {
              case Flag::Kind::String:
                *static_cast<std::string *>(match->target) = value;
                break;
              case Flag::Kind::Unsigned: {
                const unsigned long v = std::stoul(value, &used);
                if (used != value.size() ||
                    v > std::numeric_limits<unsigned>::max())
                    throw std::invalid_argument(value);
                *static_cast<unsigned *>(match->target) =
                    static_cast<unsigned>(v);
                break;
              }
              case Flag::Kind::U64:
                *static_cast<u64 *>(match->target) =
                    std::stoull(value, &used);
                if (used != value.size())
                    throw std::invalid_argument(value);
                break;
              case Flag::Kind::Double:
                *static_cast<double *>(match->target) =
                    std::stod(value, &used);
                if (used != value.size())
                    throw std::invalid_argument(value);
                break;
              case Flag::Kind::Bool:
                break;
            }
        } catch (const std::exception &) {
            return usageError(
                "bad value '%s' for %s (%s expected)", value.c_str(),
                arg.c_str(),
                match->kind == Flag::Kind::Double ? "a number"
                                                  : "an integer");
        }
    }
    return Status::Run;
}

bool
tryConfigByName(const std::string &name, core::DiagConfig *out)
{
    if (name == "I4C2")
        *out = core::DiagConfig::i4c2();
    else if (name == "F4C2")
        *out = core::DiagConfig::f4c2();
    else if (name == "F4C16")
        *out = core::DiagConfig::f4c16();
    else if (name == "F4C32")
        *out = core::DiagConfig::f4c32();
    else
        return false;
    return true;
}

core::DiagConfig
configByName(const std::string &name)
{
    core::DiagConfig cfg;
    fatal_if(!tryConfigByName(name, &cfg),
             "unknown DiAG configuration '%s'", name.c_str());
    return cfg;
}

core::DiagConfig
configWithRings(const std::string &name, unsigned rings)
{
    core::DiagConfig cfg = configByName(name);
    if (rings != 0)
        cfg.num_rings = rings;
    return cfg;
}

AnalyzerCli::AnalyzerCli(std::string tool, const std::string &verb)
    : ap_(tool, "[program.s ...]"), tool_(std::move(tool)), verb_(verb)
{
    ap_.option("--workload", &workload_, "NAME",
               verb + " a built-in benchmark kernel")
        .flag("--all-workloads", &all_workloads_,
              verb + " every bundled kernel")
        .configFlag(&config_)
        .option("--rings", &rings_, "N",
                "override the preset's ring count")
        .jsonFlag(&json_)
        .sarifFlag(&sarif_);
}

std::optional<int>
AnalyzerCli::parse(int argc, char **argv)
{
    ap_.werrorFlag(&werror_).operands(&files_);
    switch (ap_.parse(argc, argv)) {
      case ArgParser::Status::Run:
        return std::nullopt;
      case ArgParser::Status::Help:
        return 0;
      case ArgParser::Status::Usage:
        break;
    }
    return 2;
}

core::DiagConfig
AnalyzerCli::config() const
{
    return configWithRings(config_, rings_);
}

bool
AnalyzerCli::failsBar(const analysis::LintResult &findings) const
{
    return findings.errors() > 0 ||
           (werror_ && findings.warnings() > 0);
}

int
AnalyzerCli::run(unsigned jobs, const UnitFn &fn) const
{
    if (!all_workloads_ && workload_.empty() && files_.empty()) {
        ap_.usageError("nothing to %s (no workload or program file)",
                       verb_.c_str());
        return 2;
    }

    // Collect every unit first (cheap), then fan the analysis out
    // over host workers.
    const analysis::LintOptions lint = lintOptionsFor(config());
    std::vector<workloads::Workload> suite;
    if (all_workloads_) {
        suite = workloads::rodiniaSuite();
        for (workloads::Workload &w : workloads::specSuite())
            suite.push_back(std::move(w));
    } else if (!workload_.empty()) {
        suite.push_back(workloads::findWorkload(workload_));
    }
    std::vector<Unit> units;
    for (const workloads::Workload &w : suite) {
        units.push_back({w.name + " (serial)", w.asm_serial, &w,
                         /*simt=*/false, lint});
        if (!w.asm_simt.empty())
            units.push_back({w.name + " (simt)", w.asm_simt, &w,
                             /*simt=*/true, lint});
    }
    for (const std::string &file : files_) {
        std::ifstream in(file);
        fatal_if(!in.good(), "cannot open '%s'", file.c_str());
        std::stringstream ss;
        ss << in.rdbuf();
        units.push_back({file, ss.str(), nullptr, /*simt=*/false, lint});
        units.back().lint.entry_defined = analysis::RegSet{};
    }

    std::vector<Outcome> outcomes = host::parallelMap<Outcome>(
        jobs, units.size(), [&units, &fn](size_t i) {
            return fn(units[i]);
        });

    std::vector<std::pair<std::string, analysis::LintResult>> sarif;
    bool failed = false;
    for (size_t i = 0; i < units.size(); ++i) {
        Outcome &o = outcomes[i];
        failed = failed || o.failed || failsBar(o.findings);
        if (sarif_)
            sarif.emplace_back(units[i].label, std::move(o.findings));
        else
            std::fputs(o.printed.c_str(), stdout);
    }
    if (sarif_)
        std::printf("%s\n",
                    analysis::renderSarif(sarif, tool_).c_str());
    return failed ? 1 : 0;
}

} // namespace diag::harness
