/**
 * @file
 * TraceSink: where recorded events go. The standard implementation is
 * a fixed-capacity binary ring buffer — recording is one store plus an
 * index increment, the buffer never reallocates mid-run, and when it
 * wraps the oldest events are dropped (counted, so exporters can say
 * so) rather than stalling the simulation.
 *
 * Concurrency contract: sinks follow the counter-set confinement rule
 * (DESIGN.md §10) — a sink is unsynchronized and must stay confined to
 * the host worker that owns its simulator instance. Parallel drivers
 * give every worker its own tracer + sink and serialize after the
 * owning task completes.
 */
#ifndef DIAG_TRACE_SINK_HPP
#define DIAG_TRACE_SINK_HPP

#include <vector>

#include "trace/events.hpp"

namespace diag::trace
{

/** Abstract event consumer. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Record one event (hot path; must not throw). */
    virtual void record(const TraceEvent &ev) = 0;
};

/** Bounded in-memory recorder; drops the oldest events when full. */
class RingBufferSink : public TraceSink
{
  public:
    explicit RingBufferSink(size_t capacity = size_t{1} << 20)
        : capacity_(capacity ? capacity : 1)
    {
        buf_.reserve(capacity_ < 4096 ? capacity_ : 4096);
    }

    void
    record(const TraceEvent &ev) override
    {
        if (buf_.size() < capacity_) {
            buf_.push_back(ev);
            return;
        }
        buf_[head_] = ev;
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }

    /** Events recorded and still resident (<= capacity). */
    size_t size() const { return buf_.size(); }

    size_t capacity() const { return capacity_; }

    /** Events lost to wrap-around (oldest-first eviction). */
    u64 dropped() const { return dropped_; }

    /** Resident events in record order (oldest first). */
    std::vector<TraceEvent>
    events() const
    {
        std::vector<TraceEvent> out;
        out.reserve(buf_.size());
        for (size_t i = 0; i < buf_.size(); ++i)
            out.push_back(buf_[(head_ + i) % buf_.size()]);
        return out;
    }

    void
    clear()
    {
        buf_.clear();
        head_ = 0;
        dropped_ = 0;
    }

  private:
    size_t capacity_;
    size_t head_ = 0;  //!< oldest element once the buffer wrapped
    u64 dropped_ = 0;
    std::vector<TraceEvent> buf_;
};

} // namespace diag::trace

#endif // DIAG_TRACE_SINK_HPP
