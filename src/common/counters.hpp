/**
 * @file
 * Fixed counter sets: how the engines count activity (DESIGN.md §10).
 * A component that counts owns a CounterSet, an enum-indexed array of
 * u64. Each set is declared by one X-macro list that names every
 * counter once; DIAG_COUNTER_SET turns the list into the enumerators
 * and their JSON keys, the way gem5 components declare Stats::Scalar
 * members once. Bumping a counter is a plain array add, and the run
 * report is written by one loop, CounterSet::emit.
 */
#ifndef DIAG_COMMON_COUNTERS_HPP
#define DIAG_COMMON_COUNTERS_HPP

#include <array>
#include <string>

#include "common/stats.hpp"
#include "common/types.hpp"

#define DIAG_COUNTER_ENUMERATOR(key) key,
#define DIAG_COUNTER_KEY(key) #key,

/**
 * Declare the counter set @p Set from the X-macro list @p LIST (a
 * macro taking X and expanding to X(key) per counter): an enum class
 * whose enumerators are the keys, ending in Count, and counterKey()
 * returning each enumerator's JSON key.
 */
#define DIAG_COUNTER_SET(Set, LIST)                                     \
    enum class Set : u8 { LIST(DIAG_COUNTER_ENUMERATOR) Count };        \
    inline const char *counterKey(Set k)                                \
    {                                                                   \
        static constexpr const char *kKeys[] = {                        \
            LIST(DIAG_COUNTER_KEY)};                                    \
        return kKeys[static_cast<unsigned>(k)];                         \
    }

namespace diag
{

/**
 * The counters of one set, all zero until bumped. Unsynchronized: a
 * set belongs to one simulator instance and stays on the host worker
 * that owns it (DESIGN.md §10).
 */
template <typename Key>
class CounterSet
{
  public:
    static constexpr size_t kSize = static_cast<size_t>(Key::Count);

    u64 &operator[](Key k) { return v_[static_cast<size_t>(k)]; }
    u64 operator[](Key k) const { return v_[static_cast<size_t>(k)]; }

    /** Zero every counter. */
    void reset() { v_.fill(0); }

    /** Add @p other counter by counter (totals over ports). */
    CounterSet &
    operator+=(const CounterSet &other)
    {
        for (size_t i = 0; i < kSize; ++i)
            v_[i] += other.v_[i];
        return *this;
    }

    /**
     * Write every nonzero counter into @p out under @p prefix + its
     * key. A counter still at zero is left out, so a report lists
     * exactly the counters the run raised.
     */
    void
    emit(StatGroup &out, const std::string &prefix = "") const
    {
        for (size_t i = 0; i < kSize; ++i)
            if (v_[i] != 0)
                out.set(prefix + counterKey(static_cast<Key>(i)),
                        static_cast<double>(v_[i]));
    }

  private:
    std::array<u64, kSize> v_{};
};

} // namespace diag

#endif // DIAG_COMMON_COUNTERS_HPP
