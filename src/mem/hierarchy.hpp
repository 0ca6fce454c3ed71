/**
 * @file
 * Composed memory hierarchy: per-port L1I/L1D caches over a shared,
 * banked L2 and one DRAM channel. "Port" means a requester with private
 * L1s — a core in the OoO baseline, or the (single) cache interface of
 * a DiAG processor whose banked L1D is shared by all clusters.
 */
#ifndef DIAG_MEM_HIERARCHY_HPP
#define DIAG_MEM_HIERARCHY_HPP

#include <memory>
#include <vector>

#include "common/calendar.hpp"
#include "mem/cache.hpp"

namespace diag::mem
{

/** Which level served an access. */
enum class ServedBy : u8 { L1 = 1, L2 = 2, Dram = 3 };

/** Timing outcome of one memory access. */
struct MemResult
{
    Cycle done = 0;
    ServedBy level = ServedBy::L1;
};

#define DIAG_DRAM_COUNTERS(X) X(accesses) X(wait_cycles)

/** DRAM activity: line fetches and cycles they waited for the channel. */
DIAG_COUNTER_SET(DramCounter, DIAG_DRAM_COUNTERS)

/** DRAM channel with bandwidth occupancy. */
class MainMemory
{
  public:
    explicit MainMemory(const MainMemoryParams &params) : params_(params)
    {}

    /** Line fetch starting at @p now; returns data-ready cycle. */
    Cycle
    access(Cycle now)
    {
        const Cycle grant =
            channel_.reserve(now, params_.line_occupancy);
        ++counters_[DramCounter::accesses];
        counters_[DramCounter::wait_cycles] += grant - now;
        return grant + params_.latency;
    }

    void reset() { channel_.clear(); counters_.reset(); }
    const CounterSet<DramCounter> &counters() const { return counters_; }

  private:
    MainMemoryParams params_;
    BusyCalendar channel_;
    CounterSet<DramCounter> counters_;
};

/**
 * The full hierarchy. Data values always come from the functional
 * memory image owned by the execution engine; this class provides
 * timing and occupancy only.
 */
class MemHierarchy
{
  public:
    /** @p ports requesters, each with private L1I + L1D. */
    MemHierarchy(const MemParams &params, unsigned ports);

    /** Instruction-line fetch from port @p port. */
    MemResult fetchLine(unsigned port, Addr addr, Cycle now);

    /** Data access (read or write) from port @p port. */
    MemResult dataAccess(unsigned port, Addr addr, bool is_write,
                         Cycle now);

    /** Invalidate all levels and zero their counters. */
    void reset();

    /**
     * Pre-install the line containing @p addr into the shared L2
     * (steady-state cache warming before a timed benchmark run).
     */
    void warmLine(Addr addr) { l2_->warmFill(addr); }

    /**
     * Attach (or detach with nullptr) a tracer to the data-side L1s:
     * bank-conflict events become visible on the trace's memory
     * tracks. The instruction L1s and L2 stay untraced (their
     * contention already shows up as fetch-wait on the ring tracks).
     */
    void
    setTracer(trace::Tracer *t)
    {
        for (auto &c : l1d_)
            c->setTracer(t);
    }

    unsigned ports() const { return static_cast<unsigned>(l1i_.size()); }
    Cache &l1i(unsigned port) { return *l1i_[port]; }
    Cache &l1d(unsigned port) { return *l1d_[port]; }
    Cache &l2() { return *l2_; }
    MainMemory &dram() { return dram_; }

    /**
     * Write every level's nonzero counters into @p out: the L1s summed
     * over ports under "l1i." and "l1d.", then "l2." and "dram.".
     */
    void emitCounters(StatGroup &out) const;

  private:
    MemResult descend(Cache &l1, Addr addr, bool is_write, Cycle now);

    MemParams params_;
    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::unique_ptr<Cache> l2_;
    MainMemory dram_;
};

} // namespace diag::mem

#endif // DIAG_MEM_HIERARCHY_HPP
