/**
 * @file
 * Program-order store tracking shared by both timing models: younger
 * loads may not issue before all older store addresses are known, and
 * a load fully covered by a recent older store can take its data by
 * forwarding. In DiAG this models the memory lanes (paper §5.2); in
 * the OoO baseline it models the LSQ's store buffer.
 */
#ifndef DIAG_SIM_MEM_ORDER_HPP
#define DIAG_SIM_MEM_ORDER_HPP

#include <span>
#include <vector>

#include "common/sparse_mem.hpp"
#include "common/types.hpp"

namespace diag::sim
{

/** A store whose data is still forwardable. */
struct PendingStore
{
    Addr addr = 0;
    u8 size = 0;
    Cycle data_ready = 0;
};

/**
 * Per-thread memory-order state. Also carries the thread's functional
 * memory image reference so execution engines have one handle for both
 * data values and ordering.
 */
class StoreTracker
{
  public:
    StoreTracker(SparseMemory &mem, unsigned entries)
        : mem_(&mem), entries_(entries)
    {}

    SparseMemory &mem() { return *mem_; }

    /** Latest cycle at which any older store's address resolved. */
    Cycle storeAddrGate() const { return store_addr_gate_; }

    /** Record a store in program order. Returns true when the CAM
     *  window was full and the oldest entry was displaced (the trace
     *  layer reports these as memory-lane evictions). */
    bool
    recordStore(Addr addr, u8 size, Cycle addr_ready, Cycle data_ready)
    {
        if (addr_ready > store_addr_gate_)
            store_addr_gate_ = addr_ready;
        stores_.push_back({addr, size, data_ready});
        if (stores_.size() - head_ <= entries_)
            return false;
        if (++head_ >= entries_) {  // erase the displaced prefix
            stores_.erase(stores_.begin(),
                          stores_.begin() + static_cast<long>(head_));
            head_ = 0;
        }
        return true;
    }

    /**
     * Forwarding probe: data-ready cycle of the youngest older store
     * fully covering [addr, addr+size), or kNeverCycle when the load
     * cannot forward (no overlap in the window, or partial overlap).
     */
    Cycle
    forwardProbe(Addr addr, u8 size) const
    {
        for (size_t i = stores_.size(); i-- > head_;) {
            const PendingStore &st = stores_[i];
            const bool overlap = addr < st.addr + st.size &&
                                 st.addr < addr + size;
            if (!overlap)
                continue;
            const bool covered = st.addr <= addr &&
                                 addr + size <= st.addr + st.size;
            return covered ? st.data_ready : kNeverCycle;
        }
        return kNeverCycle;
    }

    void
    reset()
    {
        stores_.clear();
        head_ = 0;
        store_addr_gate_ = 0;
    }

    /** The CAM window, oldest first (fault injection / tests). */
    std::span<PendingStore>
    entries()
    {
        return {stores_.data() + head_, stores_.size() - head_};
    }

  private:
    SparseMemory *mem_;
    unsigned entries_;
    /** The window is stores_[head_..]; displaced entries sit before
     *  head_ until every `entries_` displacements erase them at once. */
    std::vector<PendingStore> stores_;
    size_t head_ = 0;
    Cycle store_addr_gate_ = 0;
};

} // namespace diag::sim

#endif // DIAG_SIM_MEM_ORDER_HPP
