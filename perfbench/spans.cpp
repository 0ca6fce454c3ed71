#include "spans.hpp"

#include <cstdio>

namespace perfbench
{

int64_t
SpanLog::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
SpanLog::open(const char *name, uint64_t cell)
{
    if (!enabled_)
        return -1;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back({name, now(), 0, stack_.empty() ? -1 : stack_.back(),
                      cell});
    stack_.push_back(index);
    return index;
}

void
SpanLog::close(int index)
{
    if (index < 0)
        return;
    spans_[static_cast<size_t>(index)].end_ns = now();
    stack_.pop_back();
}

namespace
{

/** Child-covered nanoseconds of every span (children never overlap). */
std::vector<int64_t>
childNs(const std::vector<Span> &spans)
{
    std::vector<int64_t> covered(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            covered[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    return covered;
}

} // namespace

std::map<std::string, LayerTotal>
SpanLog::totals() const
{
    const std::vector<int64_t> covered = childNs(spans_);
    std::map<std::string, LayerTotal> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        LayerTotal &t = out[s.name];
        ++t.calls;
        t.self_ms += static_cast<double>(s.end_ns - s.start_ns -
                                         covered[i]) / 1e6;
    }
    return out;
}

bool
SpanLog::writeChromeTrace(const std::string &path,
                          const std::string &workload) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::vector<int64_t> covered = childNs(spans_);
    std::fprintf(f,
                 "{\"traceEvents\": [\n"
                 "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", "
                 "\"args\": {\"name\": \"perfbench\"}},\n"
                 "{\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": "
                 "\"thread_name\", \"args\": {\"name\": \"%s\"}}",
                 workload.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const int64_t start_us = s.start_ns / 1000;
        const int64_t end_us = s.end_ns / 1000;
        const int64_t self_ns = s.end_ns - s.start_ns - covered[i];
        std::fprintf(f,
                     ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                     "\"name\": \"%s\", \"ts\": %lld, \"dur\": %lld, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, \"cell\": "
                     "%llu, \"start_ns\": %lld, \"end_ns\": %lld, "
                     "\"self_ns\": %lld}}",
                     s.name.c_str(), static_cast<long long>(start_us),
                     static_cast<long long>(end_us - start_us), i,
                     s.parent, static_cast<unsigned long long>(s.cell),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     static_cast<long long>(self_ns));
    }
    std::fprintf(f, "\n], \"otherData\": {\"workload\": \"%s\", "
                    "\"dropped\": 0}}\n",
                 workload.c_str());
    return std::fclose(f) == 0;
}

} // namespace perfbench
