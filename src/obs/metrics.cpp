#include "obs/metrics.hpp"

#include <sstream>

#include "common/stats.hpp"

namespace diag::obs
{

void
MetricRegistry::merge(const MetricRegistry &other)
{
    for (const auto &kv : other.counters_)
        counters_[kv.first] += kv.second;
    for (const auto &kv : other.gauges_) {
        auto &g = gauges_[kv.first];
        if (kv.second > g)
            g = kv.second;
    }
    for (const auto &kv : other.hists_)
        hists_[kv.first].merge(kv.second);
}

namespace
{

void
dumpScalarMap(std::ostream &os, const char *section,
              const std::map<std::string, u64> &m)
{
    os << ", \"" << section << "\": {";
    bool first = true;
    for (const auto &kv : m) {
        os << (first ? "" : ", ") << '"' << jsonEscape(kv.first)
           << "\": " << jsonNumber(static_cast<double>(kv.second));
        first = false;
    }
    os << '}';
}

void
dumpHistogram(std::ostream &os, const Histogram &h)
{
    os << "{\"count\": " << jsonNumber(static_cast<double>(h.count()))
       << ", \"sum\": " << jsonNumber(static_cast<double>(h.sum()))
       << ", \"max\": " << jsonNumber(static_cast<double>(h.max()))
       << ", \"p50\": " << jsonNumber(static_cast<double>(h.percentile(50)))
       << ", \"p95\": " << jsonNumber(static_cast<double>(h.percentile(95)))
       << ", \"p99\": " << jsonNumber(static_cast<double>(h.percentile(99)))
       << ", \"buckets\": [";
    bool first = true;
    for (unsigned b = 0; b < Histogram::kBuckets; ++b) {
        if (h.bucket(b) == 0)
            continue;
        os << (first ? "" : ", ") << '['
           << jsonNumber(static_cast<double>(Histogram::upperOf(b))) << ", "
           << jsonNumber(static_cast<double>(h.bucket(b))) << ']';
        first = false;
    }
    os << "]}";
}

} // namespace

void
MetricRegistry::dumpJson(std::ostream &os) const
{
    os << "{\"group\": \"" << jsonEscape(name_) << '"';
    dumpScalarMap(os, "counters", counters_);
    dumpScalarMap(os, "gauges", gauges_);
    os << ", \"histograms\": {";
    bool first = true;
    for (const auto &kv : hists_) {
        os << (first ? "" : ", ") << '"' << jsonEscape(kv.first) << "\": ";
        dumpHistogram(os, kv.second);
        first = false;
    }
    os << "}}\n";
}

std::string
MetricRegistry::toJson() const
{
    std::ostringstream os;
    dumpJson(os);
    return os.str();
}

MetricRegistry
mergeShards(const std::string &name,
            const std::vector<MetricRegistry> &shards)
{
    MetricRegistry merged(name);
    for (const auto &shard : shards)
        merged.merge(shard);
    return merged;
}

} // namespace diag::obs
