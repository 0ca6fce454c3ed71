/**
 * @file
 * Set-associative cache timing model with per-bank contention. The model
 * tracks tags (true hit/miss behaviour, LRU replacement, write-back
 * dirty state) but not data: data always comes from the functional
 * memory image, so timing and functionality cannot diverge.
 */
#ifndef DIAG_MEM_CACHE_HPP
#define DIAG_MEM_CACHE_HPP

#include <string>
#include <vector>

#include "common/calendar.hpp"
#include "common/counters.hpp"
#include "mem/params.hpp"
#include "trace/tracer.hpp"

namespace diag::mem
{

/** Outcome of a cache lookup. */
struct CacheLookup
{
    bool hit = false;
    Cycle grant = 0;  //!< when the bank accepted the access
    Cycle done = 0;   //!< when data is available (valid iff hit)
};

#define DIAG_CACHE_COUNTERS(X)                                          \
    X(reads) X(writes) X(hits) X(misses) X(fills) X(writebacks)         \
    X(bank_conflict_cycles)

/** Cache activity: accesses, outcomes, line traffic, bank waits. */
DIAG_COUNTER_SET(CacheCounter, DIAG_CACHE_COUNTERS)

/** One cache level. */
class Cache
{
  public:
    Cache(std::string name, const CacheParams &params);

    /**
     * Probe the cache at @p now. On a hit, `done` is the data-ready
     * cycle. On a miss the caller must consult the next level starting
     * at `grant + hit_latency` (tag-check time) and then call fill().
     */
    CacheLookup access(Addr addr, bool is_write, Cycle now);

    /**
     * Install the line containing @p addr (miss handling complete at
     * @p now). Returns true if a dirty line was evicted (write-back
     * traffic for the next level).
     */
    bool fill(Addr addr, bool is_write, Cycle now);

    /** Invalidate everything (used between benchmark runs). */
    void reset();

    /**
     * Install the line containing @p addr without touching timing
     * state or counters (benchmark cache warming).
     */
    void warmFill(Addr addr) { fillQuiet(addr); }

    /**
     * Flip bit @p bit of one way's stored tag (fault injection). The
     * way is picked as @p pick modulo the tag array size. Data always
     * comes from the functional image, so a corrupted tag perturbs
     * timing (spurious hits/misses), never values. Returns a one-line
     * description of what was hit.
     */
    std::string corruptWay(u64 pick, unsigned bit);

    const CacheParams &params() const { return params_; }
    const CounterSet<CacheCounter> &counters() const { return counters_; }

    /** Attach (or detach with nullptr) a tracer: bank-conflict events
     *  are emitted from access(); one null check when detached. */
    void setTracer(trace::Tracer *t) { tracer_ = t; }

  private:
    struct Way
    {
        u32 tag = 0;
        bool valid = false;
        bool dirty = false;
        u64 last_use = 0;
    };

    void fillQuiet(Addr addr);

    u32 setIndex(Addr addr) const;
    u32 tagOf(Addr addr) const;
    u32 bankOf(Addr addr) const;

    std::string name_;
    CacheParams params_;
    u32 num_sets_;
    std::vector<Way> ways_;            // num_sets * assoc
    std::vector<BusyCalendar> bank_busy_;  // per bank
    u64 use_counter_ = 0;
    CounterSet<CacheCounter> counters_;
    trace::Tracer *tracer_ = nullptr;  //!< null = tracing off
};

} // namespace diag::mem

#endif // DIAG_MEM_CACHE_HPP
