/**
 * @file
 * A processing cluster: 16 PEs fed by one I-cache line (paper §5.1.1),
 * with its cluster-level load/store unit state (line buffer, request
 * queue occupancy, issue port).
 */
#ifndef DIAG_DIAG_CLUSTER_HPP
#define DIAG_DIAG_CLUSTER_HPP

#include <vector>

#include "common/calendar.hpp"
#include "isa/inst.hpp"

namespace diag::core
{

/** Sentinel for "no line loaded". */
inline constexpr Addr kNoLine = ~Addr{0};

/** One processing cluster's persistent hardware state. */
struct Cluster
{
    unsigned index = 0;       //!< position within its ring
    /** Taken offline by fault recovery (graceful degradation): the
     *  control unit never allocates lines to a disabled cluster. */
    bool disabled = false;

    // ---- instruction side ----
    Addr line_base = kNoLine; //!< loaded I-line base address
    Cycle ready_at = 0;       //!< fetch + decode complete
    Cycle free_at = 0;        //!< previous activation fully retired
    u64 last_use = 0;         //!< LRU stamp for victim selection
    std::vector<isa::DecodedInst> insts;  //!< decoded line contents

    // ---- skip-idle kernel metadata (DESIGN.md §15) ----
    /** Line contains a backward branch / backward JAL. Derived from
     *  insts at load time so the control unit's prefetch decision does
     *  not rescan the (unchanged) line on every activation. */
    bool has_backward_branch = false;

    // ---- cluster-level LSU (paper §5.2) ----
    /** Small set-associative line buffer ("set-associative register
     *  lanes" for memory): tags of recently accessed D-lines. */
    static constexpr unsigned kLineBufEntries = 4;
    Addr line_buf[kLineBufEntries] = {kNoLine, kNoLine, kNoLine,
                                      kNoLine};
    u64 line_buf_use[kLineBufEntries] = {0, 0, 0, 0};
    u64 line_buf_tick = 0;
    BusyCalendar lsu_port;          //!< issue-port occupancy calendar
    std::vector<Cycle> outstanding; //!< completion times, <= lsq_entries

    /**
     * Per-PE occupancy. A PE holds one instruction and re-fires for
     * the next loop iteration as soon as its inputs are valid again
     * and its functional unit is free (§5.1.4: "PEs can always execute
     * at will") — the lane buffers every 8 PEs (§6.1.2) let successive
     * iteration values stream through a resident loop datapath.
     * pe_busy[i] is when PE i finished its previous firing.
     */
    std::vector<Cycle> pe_busy;

    /**
     * Per-PE stride prefetcher state (paper §5.2: "with instruction
     * reuse, each PE is assigned a single memory instruction whose
     * address likely changes in a fixed pattern each iteration. We
     * expect that localized stride prefetching ... will be effective").
     * One entry per PE slot, trained across activations.
     */
    struct StrideEntry
    {
        Addr last_addr = 0;
        i32 stride = 0;
        u8 confidence = 0;
        bool valid = false;
    };
    std::vector<StrideEntry> stride_table;

    /**
     * Train PE slot @p pe with the observed address; returns the
     * predicted next address when the stride is confident, else 0.
     */
    Addr
    strideTrain(unsigned pe, Addr addr)
    {
        if (stride_table.size() <= pe)
            stride_table.resize(pe + 1);
        StrideEntry &e = stride_table[pe];
        Addr predict = 0;
        if (e.valid) {
            const i32 delta =
                static_cast<i32>(addr - e.last_addr);
            if (delta == e.stride && delta != 0) {
                if (e.confidence < 3)
                    ++e.confidence;
            } else {
                e.stride = delta;
                e.confidence = 0;
            }
            if (e.confidence >= 1)
                predict = addr + static_cast<Addr>(e.stride);
        }
        e.last_addr = addr;
        e.valid = true;
        return predict;
    }

    /** Probe the line buffer; inserts on miss. True on hit. */
    bool
    lineBufAccess(Addr line)
    {
        unsigned victim = 0;
        for (unsigned e = 0; e < kLineBufEntries; ++e) {
            if (line_buf[e] == line) {
                line_buf_use[e] = ++line_buf_tick;
                return true;
            }
            if (line_buf_use[e] < line_buf_use[victim])
                victim = e;
        }
        line_buf[victim] = line;
        line_buf_use[victim] = ++line_buf_tick;
        return false;
    }

    bool loaded() const { return line_base != kNoLine; }

    /** Drop the loaded line (eviction / reallocation). */
    void
    evict()
    {
        line_base = kNoLine;
        insts.clear();
        has_backward_branch = false;
    }

    /** Reset all state between runs. */
    void
    reset()
    {
        evict();
        disabled = false;
        ready_at = 0;
        free_at = 0;
        last_use = 0;
        for (unsigned e = 0; e < kLineBufEntries; ++e) {
            line_buf[e] = kNoLine;
            line_buf_use[e] = 0;
        }
        line_buf_tick = 0;
        lsu_port.clear();
        outstanding.clear();
        pe_busy.clear();
        stride_table.clear();
    }
};

} // namespace diag::core

#endif // DIAG_DIAG_CLUSTER_HPP
