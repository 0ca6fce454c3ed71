#include "mem/cache.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/log.hpp"

namespace diag::mem
{

Cache::Cache(std::string name, const CacheParams &params)
    : name_(std::move(name)), params_(params)
{
    fatal_if(!isPow2(params_.line_bytes), "%s: line size not power of 2",
             name_.c_str());
    fatal_if(params_.assoc == 0, "%s: zero associativity", name_.c_str());
    num_sets_ = params_.size_bytes / (params_.line_bytes * params_.assoc);
    fatal_if(num_sets_ == 0 || !isPow2(num_sets_),
             "%s: set count %u must be a nonzero power of 2",
             name_.c_str(), num_sets_);
    fatal_if(!isPow2(params_.banks), "%s: bank count not power of 2",
             name_.c_str());
    ways_.resize(static_cast<size_t>(num_sets_) * params_.assoc);
    bank_busy_.assign(params_.banks, BusyCalendar{});
}

u32
Cache::setIndex(Addr addr) const
{
    return (addr / params_.line_bytes) & (num_sets_ - 1);
}

u32
Cache::tagOf(Addr addr) const
{
    return addr / params_.line_bytes / num_sets_;
}

u32
Cache::bankOf(Addr addr) const
{
    // Word-interleaved banking (8-byte grain): accesses to different
    // words of the same line proceed in parallel, as in real L1s.
    return (addr / 8) & (params_.banks - 1);
}

CacheLookup
Cache::access(Addr addr, bool is_write, Cycle now)
{
    CacheLookup res;
    const u32 bank = bankOf(addr);
    res.grant = bank_busy_[bank].reserve(now, params_.bank_occupancy);
    if (res.grant > now) {
        counters_[CacheCounter::bank_conflict_cycles] += res.grant - now;
        if (tracer_)
            tracer_->bankConflict(static_cast<u16>(bank), addr, now,
                                  res.grant - now);
    }
    ++counters_[is_write ? CacheCounter::writes : CacheCounter::reads];

    const u32 set = setIndex(addr);
    const u32 tag = tagOf(addr);
    Way *base = &ways_[static_cast<size_t>(set) * params_.assoc];
    for (u32 w = 0; w < params_.assoc; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == tag) {
            way.last_use = ++use_counter_;
            if (is_write)
                way.dirty = true;
            res.hit = true;
            res.done = res.grant + params_.hit_latency;
            ++counters_[CacheCounter::hits];
            return res;
        }
    }
    ++counters_[CacheCounter::misses];
    return res;
}

void
Cache::fillQuiet(Addr addr)
{
    const u32 set = setIndex(addr);
    const u32 tag = tagOf(addr);
    Way *base = &ways_[static_cast<size_t>(set) * params_.assoc];
    Way *victim = base;
    for (u32 w = 0; w < params_.assoc; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == tag)
            return;  // already resident
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.last_use < victim->last_use)
            victim = &way;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = false;
    victim->last_use = ++use_counter_;
}

bool
Cache::fill(Addr addr, bool is_write, Cycle)
{
    const u32 set = setIndex(addr);
    const u32 tag = tagOf(addr);
    Way *base = &ways_[static_cast<size_t>(set) * params_.assoc];
    Way *victim = base;
    for (u32 w = 0; w < params_.assoc; ++w) {
        Way &way = base[w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.last_use < victim->last_use)
            victim = &way;
    }
    const bool writeback = victim->valid && victim->dirty;
    if (writeback)
        ++counters_[CacheCounter::writebacks];
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = is_write;
    victim->last_use = ++use_counter_;
    ++counters_[CacheCounter::fills];
    return writeback;
}

std::string
Cache::corruptWay(u64 pick, unsigned bit)
{
    const size_t idx = static_cast<size_t>(pick % ways_.size());
    Way &way = ways_[idx];
    way.tag ^= 1u << (bit % 32);
    return detail::vformat("%s way %zu tag bit %u flipped%s",
                           name_.c_str(), idx, bit % 32,
                           way.valid ? "" : " (way was invalid)");
}

void
Cache::reset()
{
    for (Way &way : ways_)
        way = Way{};
    for (BusyCalendar &bank : bank_busy_)
        bank.clear();
    use_counter_ = 0;
    counters_.reset();
}

} // namespace diag::mem
