/**
 * @file
 * Deterministic metrics core (DESIGN.md §16): counters, gauges, and
 * log2-bucketed histograms with byte-stable key-sorted JSON dumps
 * matching the StatGroup::dumpJson contract.
 *
 * Concurrency contract mirrors StatGroup (DESIGN.md §10): a
 * MetricRegistry is deliberately unsynchronized and must stay confined
 * to the host worker that owns it; cross-worker aggregation happens
 * after the owning tasks complete via merge(), in task-index order.
 * Every merge operation is commutative and associative (counters and
 * histogram buckets sum, gauges take the max), so a merged snapshot is
 * byte-identical for any --jobs N.
 */
#ifndef DIAG_OBS_METRICS_HPP
#define DIAG_OBS_METRICS_HPP

#include <array>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace diag::obs
{

/**
 * Fixed-shape log2 histogram over unsigned values.
 *
 * Bucket 0 holds the value 0; bucket k >= 1 holds [2^(k-1), 2^k), so
 * bucket k's inclusive upper bound is 2^k - 1 (bucket 64 absorbs the
 * top of the u64 range). The shape is data-independent, which makes
 * merge() a plain bucket-wise sum and keeps snapshots byte-identical
 * regardless of how samples were sharded across workers.
 *
 * Percentiles are computed with integer rank arithmetic — no floating
 * point — and report the matching bucket's upper bound, capped at the
 * exact recorded max (so max() is always exact and p-anything never
 * exceeds it).
 */
class Histogram
{
  public:
    static constexpr unsigned kBuckets = 65;

    /** Bucket index for @p v: 0 for 0, else 64 - clz(v). */
    static unsigned
    bucketOf(u64 v)
    {
        if (v == 0)
            return 0;
        unsigned b = 0;
        while (v) {
            v >>= 1;
            ++b;
        }
        return b;
    }

    /** Inclusive upper bound of bucket @p b. */
    static u64
    upperOf(unsigned b)
    {
        if (b == 0)
            return 0;
        if (b >= 64)
            return ~u64{0};
        return (u64{1} << b) - 1;
    }

    void
    record(u64 v)
    {
        ++counts_[bucketOf(v)];
        ++count_;
        sum_ += v;
        if (v > max_)
            max_ = v;
    }

    void
    merge(const Histogram &other)
    {
        for (unsigned b = 0; b < kBuckets; ++b)
            counts_[b] += other.counts_[b];
        count_ += other.count_;
        sum_ += other.sum_;
        if (other.max_ > max_)
            max_ = other.max_;
    }

    u64 count() const { return count_; }
    u64 sum() const { return sum_; }
    u64 max() const { return max_; }
    u64 bucket(unsigned b) const { return counts_[b]; }

    /**
     * Value at or below which at least @p pct percent of samples fall:
     * the upper bound of the first bucket whose cumulative count
     * reaches rank ceil(count * pct / 100), capped at the recorded
     * max. Returns 0 for an empty histogram.
     */
    u64
    percentile(unsigned pct) const
    {
        if (count_ == 0)
            return 0;
        const u64 rank = (count_ * pct + 99) / 100;
        u64 cum = 0;
        for (unsigned b = 0; b < kBuckets; ++b) {
            cum += counts_[b];
            if (cum >= rank) {
                const u64 up = upperOf(b);
                return up < max_ ? up : max_;
            }
        }
        return max_;
    }

  private:
    std::array<u64, kBuckets> counts_{};
    u64 count_ = 0;
    u64 sum_ = 0;
    u64 max_ = 0;
};

/**
 * Named registry of counters (merge: sum), gauges (merge: max), and
 * histograms (merge: bucket-wise sum). Keys live in std::map so every
 * dump walks them sorted; the JSON number format is the shared
 * diag::jsonNumber, byte-compatible with StatGroup::dumpJson.
 */
class MetricRegistry
{
  public:
    explicit MetricRegistry(std::string name = "obs")
        : name_(std::move(name))
    {}

    const std::string &name() const { return name_; }

    void inc(const std::string &key, u64 delta = 1)
    {
        counters_[key] += delta;
    }

    void set(const std::string &key, u64 value) { counters_[key] = value; }

    /** Raise the gauge @p key to @p v if larger (high-watermark). */
    void
    maxGauge(const std::string &key, u64 v)
    {
        auto &g = gauges_[key];
        if (v > g)
            g = v;
    }

    /** Record @p v into the histogram @p key, creating it if absent. */
    void observe(const std::string &key, u64 v) { hists_[key].record(v); }

    u64
    counter(const std::string &key) const
    {
        auto it = counters_.find(key);
        return it == counters_.end() ? 0 : it->second;
    }

    u64
    gauge(const std::string &key) const
    {
        auto it = gauges_.find(key);
        return it == gauges_.end() ? 0 : it->second;
    }

    /** Histogram by key, or nullptr when never observed. */
    const Histogram *
    histogram(const std::string &key) const
    {
        auto it = hists_.find(key);
        return it == hists_.end() ? nullptr : &it->second;
    }

    /** Commutative merge; see class comment for per-kind semantics. */
    void merge(const MetricRegistry &other);

    bool
    empty() const
    {
        return counters_.empty() && gauges_.empty() && hists_.empty();
    }

    /**
     * Byte-stable dump: one JSON object with the registry name and
     * key-sorted "counters", "gauges", and "histograms" sections.
     * Histogram buckets render as an array of [upper_bound, count]
     * pairs (an array, not an object keyed by bound — string keys
     * would sort "16" before "8") listing only non-empty buckets.
     */
    void dumpJson(std::ostream &os) const;

    std::string toJson() const;

  private:
    std::string name_;
    std::map<std::string, u64> counters_;
    std::map<std::string, u64> gauges_;
    std::map<std::string, Histogram> hists_;
};

/**
 * Merge per-worker shards into one snapshot, walking shards in task
 * index order. Because every merge is commutative the order does not
 * affect the result — the fixed order just makes that easy to audit.
 */
MetricRegistry mergeShards(const std::string &name,
                           const std::vector<MetricRegistry> &shards);

} // namespace diag::obs

#endif // DIAG_OBS_METRICS_HPP
