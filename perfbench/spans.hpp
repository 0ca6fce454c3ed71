/**
 * @file
 * In-memory span log for the benchmark's traced runs. The benchmark
 * opens a span around each of its own calls into a simulator module
 * (assemble, lint, processor constructor, run, ...); spans nest, carry
 * the id of the cell they belong to, and are written once at exit as
 * Chrome trace-event JSON. A disabled log records nothing, so the
 * untraced run pays one branch per call site.
 */
#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One closed (or still open) interval. */
struct Span
{
    std::string name;
    int64_t start_ns = 0;  //!< relative to the log's origin
    int64_t end_ns = 0;
    int parent = -1;       //!< index of the enclosing span, -1 = root
    uint64_t cell = 0;     //!< cell id shared by one cell's spans
};

/** Per-name totals: calls and self time (span minus child spans). */
struct LayerTotal
{
    uint64_t calls = 0;
    double self_ms = 0.0;
};

class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span nested in the innermost open one; -1 if disabled. */
    int open(const char *name, uint64_t cell);
    void close(int index);

    /** Self time and call count per span name. */
    std::map<std::string, LayerTotal> totals() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path,
                          const std::string &workload) const;

  private:
    int64_t now() const;

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opens on construction, closes on destruction. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name, uint64_t cell)
        : log_(log), index_(log.open(name, cell))
    {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &log_;
    int index_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
