#include "analysis/diagnostic.hpp"

#include <algorithm>
#include <tuple>

#include "common/log.hpp"
#include "common/stats.hpp"

namespace diag::analysis
{

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Error: return "error";
      case Severity::Warning: return "warning";
      case Severity::Note: return "note";
    }
    return "?";
}

unsigned
LintResult::count(Severity s) const
{
    unsigned n = 0;
    for (const Diagnostic &d : diags)
        if (d.severity == s)
            ++n;
    return n;
}

void
LintResult::finalize()
{
    auto key = [](const Diagnostic &d) {
        return std::tie(d.pc, d.pass, d.severity, d.message);
    };
    std::stable_sort(diags.begin(), diags.end(),
                     [&](const Diagnostic &a, const Diagnostic &b) {
                         return key(a) < key(b);
                     });
    diags.erase(std::unique(diags.begin(), diags.end(),
                            [&](const Diagnostic &a,
                                const Diagnostic &b) {
                                return key(a) == key(b);
                            }),
                diags.end());
}

std::string
renderText(const LintResult &result)
{
    std::string out;
    for (const Diagnostic &d : result.diags) {
        out += detail::vformat("0x%08x: %s: [%s] %s\n", d.pc,
                               severityName(d.severity), d.pass.c_str(),
                               d.message.c_str());
    }
    out += detail::vformat(
        "%u error(s), %u warning(s), %u note(s)\n", result.errors(),
        result.warnings(), result.count(Severity::Note));
    return out;
}

std::string
renderJson(const LintResult &result)
{
    std::string out = detail::vformat(
        "{\"errors\": %u, \"warnings\": %u, \"notes\": %u, "
        "\"diagnostics\": [",
        result.errors(), result.warnings(),
        result.count(Severity::Note));
    bool first = true;
    for (const Diagnostic &d : result.diags) {
        if (!first)
            out += ", ";
        first = false;
        out += detail::vformat(
            "{\"severity\": \"%s\", \"pc\": %u, \"pass\": \"%s\", "
            "\"message\": \"%s\"}",
            severityName(d.severity), d.pc,
            jsonEscape(d.pass).c_str(), jsonEscape(d.message).c_str());
    }
    out += "]}\n";
    return out;
}

std::string
renderSarif(const std::vector<std::pair<std::string, LintResult>> &units,
            const std::string &tool_name)
{
    auto sarif_level = [](Severity s) {
        switch (s) {
          case Severity::Error: return "error";
          case Severity::Warning: return "warning";
          case Severity::Note: return "note";
        }
        return "none";
    };
    std::string out =
        "{\"version\": \"2.1.0\", "
        "\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\", "
        "\"runs\": [{\"tool\": {\"driver\": {\"name\": \"";
    out += jsonEscape(tool_name);
    out += "\", \"rules\": []}}, \"results\": [";
    bool first = true;
    for (const auto &[uri, result] : units) {
        for (const Diagnostic &d : result.diags) {
            if (!first)
                out += ", ";
            first = false;
            // No source mapping exists for assembled images: anchor
            // each finding at instruction granularity (word index as
            // a line).
            out += detail::vformat(
                "{\"ruleId\": \"%s\", \"level\": \"%s\", "
                "\"message\": {\"text\": \"0x%08x: %s\"}, "
                "\"locations\": [{\"physicalLocation\": "
                "{\"artifactLocation\": {\"uri\": \"%s\"}, "
                "\"region\": {\"startLine\": %u}}}]}",
                jsonEscape(d.pass).c_str(), sarif_level(d.severity),
                d.pc, jsonEscape(d.message).c_str(),
                jsonEscape(uri).c_str(), d.pc / 4 + 1);
        }
    }
    out += "]}]}\n";
    return out;
}

} // namespace diag::analysis
