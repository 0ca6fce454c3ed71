#include "mem/hierarchy.hpp"

#include "common/bits.hpp"

namespace diag::mem
{

MemHierarchy::MemHierarchy(const MemParams &params, unsigned ports)
    : params_(params), dram_(params.dram)
{
    for (unsigned p = 0; p < ports; ++p) {
        l1i_.push_back(std::make_unique<Cache>(
            "l1i" + std::to_string(p), params.l1i));
        l1d_.push_back(std::make_unique<Cache>(
            "l1d" + std::to_string(p), params.l1d));
    }
    l2_ = std::make_unique<Cache>("l2", params.l2);
}

MemResult
MemHierarchy::descend(Cache &l1, Addr addr, bool is_write, Cycle now)
{
    MemResult res;
    const CacheLookup first = l1.access(addr, is_write, now);
    if (first.hit) {
        res.done = first.done;
        res.level = ServedBy::L1;
        return res;
    }
    // L1 miss: probe L2 after the L1 tag check.
    const Cycle l2_start = first.grant + l1.params().hit_latency;
    const CacheLookup second = l2_->access(addr, false, l2_start);
    Cycle data_ready;
    if (second.hit) {
        data_ready = second.done;
        res.level = ServedBy::L2;
    } else {
        const Cycle dram_start =
            second.grant + l2_->params().hit_latency;
        data_ready = dram_.access(dram_start);
        l2_->fill(addr, false, data_ready);
        res.level = ServedBy::Dram;
    }
    // Fill L1; evicted dirty lines consume an L2 write slot.
    if (l1.fill(addr, is_write, data_ready))
        l2_->access(alignDown(addr, l1.params().line_bytes), true,
                    data_ready);
    res.done = data_ready + 1;  // fill-to-use forwarding
    return res;
}

MemResult
MemHierarchy::fetchLine(unsigned port, Addr addr, Cycle now)
{
    return descend(*l1i_[port], addr, false, now);
}

MemResult
MemHierarchy::dataAccess(unsigned port, Addr addr, bool is_write,
                         Cycle now)
{
    return descend(*l1d_[port], addr, is_write, now);
}

void
MemHierarchy::reset()
{
    for (auto &cache : l1i_)
        cache->reset();
    for (auto &cache : l1d_)
        cache->reset();
    l2_->reset();
    dram_.reset();
}

void
MemHierarchy::emitCounters(StatGroup &out) const
{
    CounterSet<CacheCounter> l1i_total;
    CounterSet<CacheCounter> l1d_total;
    for (const auto &cache : l1i_)
        l1i_total += cache->counters();
    for (const auto &cache : l1d_)
        l1d_total += cache->counters();
    l1i_total.emit(out, "l1i.");
    l1d_total.emit(out, "l1d.");
    l2_->counters().emit(out, "l2.");
    dram_.counters().emit(out, "dram.");
}

} // namespace diag::mem
