#include "common/stats.hpp"

#include <cmath>

#include "common/log.hpp"

namespace diag
{

std::string
jsonNumber(double v)
{
    if (std::isfinite(v) && v == std::floor(v) &&
        std::fabs(v) < 9.007199254740992e15)  // 2^53: exactly integral
        return detail::vformat("%lld", static_cast<long long>(v));
    return detail::vformat("%.12g", v);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\', out += c;
        else if (static_cast<unsigned char>(c) < 0x20)
            out += detail::vformat("\\u%04x", c);
        else
            out += c;
    }
    return out;
}

void
StatGroup::dumpJson(std::ostream &os) const
{
    os << "{\"group\": \"" << jsonEscape(name_)
       << "\", \"counters\": {";
    bool first = true;
    for (const auto &kv : values_) {
        os << (first ? "" : ", ") << '"' << jsonEscape(kv.first)
           << "\": " << jsonNumber(kv.second);
        first = false;
    }
    os << "}}\n";
}

} // namespace diag
