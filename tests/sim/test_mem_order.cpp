/** sim::StoreTracker: the store-forwarding window against a
 *  std::deque reference, across every compaction of its front offset,
 *  and writes through entries() as the fault injector makes them. */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/rng.hpp"
#include "sim/mem_order.hpp"

using namespace diag;
using sim::PendingStore;

namespace
{

/** Data-ready cycle of the youngest store fully covering
 *  [addr, addr + size); kNeverCycle on no overlap or a partial one. */
Cycle
refProbe(const std::deque<PendingStore> &window, Addr addr, u8 size)
{
    for (auto it = window.rbegin(); it != window.rend(); ++it) {
        if (addr < it->addr + it->size && it->addr < addr + size)
            return it->addr <= addr && addr + size <= it->addr + it->size
                       ? it->data_ready
                       : kNeverCycle;
    }
    return kNeverCycle;
}

} // namespace

TEST(StoreTracker, WindowMatchesADequeReference)
{
    for (const unsigned entries : {1u, 2u, 3u, 32u}) {
        SparseMemory mem;
        sim::StoreTracker st(mem, entries);
        std::deque<PendingStore> ref;
        Cycle gate = 0;
        Rng rng(entries);
        for (unsigned k = 0; k < 3000; ++k) {
            SCOPED_TRACE(::testing::Message() << entries << " entries, op "
                                              << k);
            const Addr addr = 0x100 + static_cast<Addr>(rng.below(48));
            const u8 size = static_cast<u8>(1u << rng.below(3));
            const u64 op = rng.below(8);
            if (op < 4) {
                const Cycle addr_ready = rng.below(1000);
                const Cycle data_ready = rng.below(1000);
                ref.push_back({addr, size, data_ready});
                const bool displaced = ref.size() > entries;
                if (displaced)
                    ref.pop_front();
                gate = std::max(gate, addr_ready);
                ASSERT_EQ(st.recordStore(addr, size, addr_ready, data_ready),
                          displaced);
                ASSERT_EQ(st.storeAddrGate(), gate);
            } else if (op == 4 && !ref.empty()) {
                // A flipped address bit, as FaultSite::MemLaneEntry
                // injects it.
                const size_t pick = rng.below(ref.size());
                st.entries()[pick].addr ^= 4;
                ref[pick].addr ^= 4;
            } else {
                ASSERT_EQ(st.forwardProbe(addr, size),
                          refProbe(ref, addr, size));
            }
            const auto window = st.entries();
            ASSERT_EQ(window.size(), ref.size());
            for (size_t i = 0; i < ref.size(); ++i) {
                ASSERT_EQ(window[i].addr, ref[i].addr) << "entry " << i;
                ASSERT_EQ(window[i].size, ref[i].size) << "entry " << i;
                ASSERT_EQ(window[i].data_ready, ref[i].data_ready)
                    << "entry " << i;
            }
        }
        st.reset();
        EXPECT_TRUE(st.entries().empty());
        EXPECT_EQ(st.storeAddrGate(), 0u);
        EXPECT_EQ(st.forwardProbe(0x100, 4), kNeverCycle);
    }
}
