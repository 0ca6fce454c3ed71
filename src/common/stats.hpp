/**
 * @file
 * The run report: a byte-stable map from counter key to value. The
 * engines count into fixed counter sets (common/counters.hpp) and
 * write them into a StatGroup once, at the end of a run; the energy
 * model, the harness, the benches and every --stats-json dump read the
 * report by key.
 */
#ifndef DIAG_COMMON_STATS_HPP
#define DIAG_COMMON_STATS_HPP

#include <map>
#include <ostream>
#include <string>

namespace diag
{

/**
 * Byte-stable JSON number: counters are mostly exact integral counts,
 * which render without a fraction; anything else uses %.12g (enough
 * digits that equal doubles render equal bytes, and unequal ones
 * almost surely do not). Shared by StatGroup::dumpJson and the obs
 * metrics registry so every JSON artifact renders numbers identically.
 */
std::string jsonNumber(double v);

/**
 * Escape a string for embedding in a JSON document. Counter keys are
 * ASCII identifiers, but escape defensively so a hostile key cannot
 * break the document.
 */
std::string jsonEscape(const std::string &s);

/**
 * A named, flat, key-sorted set of double-valued results. Reading a
 * missing key returns zero, so consumers do not need to know the full
 * set in advance. Unsynchronized: a report is built by the worker that
 * ran the simulation and read after the run (DESIGN.md §10).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "stats") : name_(std::move(name))
    {}

    /** Group name written into the JSON dump. */
    const std::string &name() const { return name_; }

    /** Overwrite the counter @p key. */
    void
    set(const std::string &key, double value)
    {
        values_[key] = value;
    }

    /** Read a counter; missing keys read as zero. */
    double
    get(const std::string &key) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? 0.0 : it->second;
    }

    /** All (key, value) pairs, sorted by key. */
    const std::map<std::string, double> &all() const { return values_; }

    /**
     * Machine-readable dump: one JSON object with the group name and a
     * key-sorted "counters" object. Byte-stable — the same counters
     * always render the same bytes (std::map iteration order plus a
     * fixed number format: integers without a fraction, everything
     * else with %.12g), so golden-file diffs and artifact comparisons
     * across runs are exact.
     */
    void dumpJson(std::ostream &os) const;

  private:
    std::string name_;
    std::map<std::string, double> values_;
};

} // namespace diag

#endif // DIAG_COMMON_STATS_HPP
