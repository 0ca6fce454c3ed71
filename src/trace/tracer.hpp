/**
 * @file
 * Tracer: the always-compiled, off-by-default observation layer. The
 * execution engines hold a nullable `Tracer *`; every hook on the hot
 * path costs exactly one null check when tracing is off (the same
 * pattern as the fault controller). When on, a hook filters by event
 * mask, records into the attached sink, and feeds the time-series
 * metrics accumulator — it NEVER changes any Cycle computation, so an
 * attached tracer is architecturally invisible (the determinism tests
 * assert counter-level cycle equality with tracing on vs off).
 *
 * Concurrency contract: a Tracer is unsynchronized, like the counter
 * sets it observes alongside; it must stay confined to the host worker that
 * owns its simulator instance (DESIGN.md §10, §11). Parallel drivers
 * create one tracer per run, inside the owning task.
 */
#ifndef DIAG_TRACE_TRACER_HPP
#define DIAG_TRACE_TRACER_HPP

#include <memory>
#include <vector>

#include "trace/sink.hpp"

namespace diag::trace
{

/** What to trace and how finely to sample the time series. */
struct TraceConfig
{
    u32 event_mask = kDefaultEvents;  //!< EventKind bit set
    /** Time-series bucket width in cycles; 0 disables sampling. */
    u64 metrics_stride = 0;
    /** Ring-buffer capacity in events (oldest dropped on overflow). */
    size_t buffer_events = size_t{1} << 20;
};

/** One time-series bucket of stride cycles. */
struct MetricsSample
{
    Cycle cycle = 0;           //!< bucket start cycle
    double retired = 0;        //!< instructions retired in the bucket
    double cluster_busy = 0;   //!< summed cluster-active cycles
    double lane_writes = 0;    //!< register-lane writes
    Addr region = 0;           //!< simt region live here (0 = serial)
};

/** Bucketed counters accumulated while tracing. */
class MetricsSeries
{
  public:
    explicit MetricsSeries(u64 stride) : stride_(stride) {}

    u64 stride() const { return stride_; }
    bool enabled() const { return stride_ != 0; }

    /** Credit @p n retired instructions to the bucket of @p at. */
    void
    addRetired(Cycle at, double n)
    {
        if (MetricsSample *s = bucket(at))
            s->retired += n;
    }

    /** Spread one busy unit over [start, end) across buckets. */
    void
    addBusy(Cycle start, Cycle end)
    {
        if (!enabled() || end <= start)
            return;
        for (Cycle c = start - start % stride_; c < end; c += stride_) {
            MetricsSample *s = bucket(c);
            if (!s)
                return;
            const Cycle lo = c < start ? start : c;
            const Cycle hi = end < c + stride_ ? end : c + stride_;
            s->cluster_busy += static_cast<double>(hi - lo);
        }
    }

    void
    addLaneWrite(Cycle at)
    {
        if (MetricsSample *s = bucket(at))
            s->lane_writes += 1;
    }

    /** Tag buckets overlapping [start, end) with simt region @p pc. */
    void
    markRegion(Addr pc, Cycle start, Cycle end)
    {
        if (!enabled())
            return;
        for (Cycle c = start - start % stride_; c < end; c += stride_) {
            MetricsSample *s = bucket(c);
            if (!s)
                return;
            s->region = pc;
        }
    }

    const std::vector<MetricsSample> &samples() const { return buf_; }

    /**
     * Bucket-wise sum of another series into this one (retired, busy,
     * and lane-write totals add; a bucket's region tag is kept if
     * already set, else taken from @p o). Commutative apart from the
     * region tag, which is only used for labeling. Strides must match;
     * a mismatched merge is ignored. Used by diag-serve --batch to
     * fold per-attempt series into one service-wide time series.
     */
    void
    merge(const MetricsSeries &o)
    {
        if (stride_ != o.stride_ || !enabled())
            return;
        for (const MetricsSample &src : o.buf_) {
            MetricsSample *s = bucket(src.cycle);
            if (!s)
                return;
            s->retired += src.retired;
            s->cluster_busy += src.cluster_busy;
            s->lane_writes += src.lane_writes;
            if (s->region == 0)
                s->region = src.region;
        }
    }

  private:
    /** Bucket holding cycle @p at; nullptr when sampling is off or
     *  the index is implausible (corrupted-cycle guard). */
    MetricsSample *
    bucket(Cycle at)
    {
        if (!enabled())
            return nullptr;
        const u64 idx = at / stride_;
        if (idx > kMaxBuckets)
            return nullptr;
        if (buf_.size() <= idx) {
            const size_t old = buf_.size();
            buf_.resize(idx + 1);
            for (size_t i = old; i < buf_.size(); ++i)
                buf_[i].cycle = static_cast<Cycle>(i) * stride_;
        }
        return &buf_[idx];
    }

    static constexpr u64 kMaxBuckets = u64{1} << 27;

    u64 stride_;
    std::vector<MetricsSample> buf_;
};

/** The observation front-end the engine hooks talk to. */
class Tracer
{
  public:
    explicit Tracer(const TraceConfig &cfg = {})
        : cfg_(cfg), sink_(cfg.buffer_events),
          metrics_(cfg.metrics_stride)
    {}

    const TraceConfig &config() const { return cfg_; }
    bool wants(EventKind k) const { return cfg_.event_mask & eventBit(k); }
    const RingBufferSink &sink() const { return sink_; }
    MetricsSeries &metrics() { return metrics_; }
    const MetricsSeries &metrics() const { return metrics_; }

    /** Total clusters of the traced processor (set on attach; used by
     *  exporters to normalize occupancy). */
    void setClusters(unsigned n) { clusters_ = n; }
    unsigned clusters() const { return clusters_; }

    // ---- hook emitters (names match the EventKind taxonomy) ----

    void
    activation(u8 ring, u16 cluster, Addr pc, Cycle start, Cycle end,
               bool reused, u64 retired)
    {
        if (wants(EventKind::Activation))
            sink_.record({EventKind::Activation, ring, cluster, pc,
                          start, end - start, retired});
        metrics_.addBusy(start, end);
        metrics_.addRetired(end, static_cast<double>(retired));
        if (reused)
            reuseHit(ring, cluster, pc, start);
    }

    void
    reuseHit(u8 ring, u16 cluster, Addr pc, Cycle at)
    {
        if (wants(EventKind::ReuseHit))
            sink_.record({EventKind::ReuseHit, ring, cluster, pc, at,
                          0, 0});
    }

    void
    laneWrite(u8 ring, u16 lane, Addr pc, Cycle at, u32 value)
    {
        if (wants(EventKind::LaneWrite))
            sink_.record({EventKind::LaneWrite, ring, lane, pc, at, 0,
                          value});
        metrics_.addLaneWrite(at);
    }

    void
    pcRedirect(u8 ring, u16 cluster, Addr pc, Cycle resolve,
               Addr target)
    {
        if (wants(EventKind::PcRedirect))
            sink_.record({EventKind::PcRedirect, ring, cluster, pc,
                          resolve, 0, target});
    }

    void
    simtStage(u8 ring, u16 cluster, Addr pc, Cycle start, Cycle end,
              u64 thread)
    {
        if (wants(EventKind::SimtStage))
            sink_.record({EventKind::SimtStage, ring, cluster, pc,
                          start, end - start, thread});
        metrics_.addBusy(start, end);
    }

    /** Stage-mode retirement credit (no per-stage event needed). */
    void
    retired(Cycle at, u64 n)
    {
        metrics_.addRetired(at, static_cast<double>(n));
    }

    void
    lsuQueue(u8 ring, u16 cluster, Addr pc, Cycle at, Cycle stall,
             u64 depth)
    {
        if (wants(EventKind::LsuQueue))
            sink_.record({EventKind::LsuQueue, ring, cluster, pc, at,
                          stall, depth});
    }

    void
    memLaneHit(u8 ring, Addr pc, Cycle at, u16 entries)
    {
        if (wants(EventKind::MemLaneHit))
            sink_.record({EventKind::MemLaneHit, ring, entries, pc, at,
                          0, 0});
    }

    void
    memLaneEvict(u8 ring, Addr pc, Cycle at, u16 entries)
    {
        if (wants(EventKind::MemLaneEvict))
            sink_.record({EventKind::MemLaneEvict, ring, entries, pc,
                          at, 0, 0});
    }

    void
    bankConflict(u16 bank, Addr addr, Cycle at, Cycle wait)
    {
        if (wants(EventKind::BankConflict))
            sink_.record({EventKind::BankConflict, 0, bank, addr, at,
                          wait, 0});
    }

    void
    checkpoint(u8 ring, Addr pc, Cycle at, u64 retired)
    {
        if (wants(EventKind::Checkpoint))
            sink_.record({EventKind::Checkpoint, ring, 0, pc, at, 0,
                          retired});
    }

    void
    rollback(u8 ring, Addr pc, Cycle at, u64 recoveries)
    {
        if (wants(EventKind::Rollback))
            sink_.record({EventKind::Rollback, ring, 0, pc, at, 0,
                          recoveries});
    }

    void
    regionEnter(u8 ring, Addr pc, Cycle at, u64 threads)
    {
        if (wants(EventKind::RegionEnter))
            sink_.record({EventKind::RegionEnter, ring, 0, pc, at, 0,
                          threads});
    }

    void
    regionExit(u8 ring, Addr pc, Cycle start, Cycle end)
    {
        if (wants(EventKind::RegionExit))
            sink_.record({EventKind::RegionExit, ring, 0, pc, end, 0,
                          end - start});
        metrics_.markRegion(pc, start, end);
    }

    void
    thread(u8 ring, u16 slot, Addr entry, Cycle start, Cycle end,
           u64 retired)
    {
        if (wants(EventKind::Thread))
            sink_.record({EventKind::Thread, ring, slot, entry, start,
                          end - start, retired});
    }

  private:
    TraceConfig cfg_;
    RingBufferSink sink_;
    MetricsSeries metrics_;
    unsigned clusters_ = 0;
};

} // namespace diag::trace

#endif // DIAG_TRACE_TRACER_HPP
