/**
 * @file
 * One out-of-order core. The model is a one-pass timestamp simulator:
 * instructions are processed in program order (functional oracle) and
 * each dynamic instruction receives fetch / dispatch / issue /
 * complete / commit timestamps subject to frontend width and latency,
 * branch prediction, ROB/IQ/LSQ windows, functional-unit pools, and
 * the shared memory hierarchy. This style models the same constraints
 * a cycle-driven OoO model enforces, at much higher simulation speed.
 * Each constraint is one std::max in the runThread phase it belongs to.
 */
#ifndef DIAG_OOO_CORE_HPP
#define DIAG_OOO_CORE_HPP

#include <unordered_map>
#include <vector>

#include "common/calendar.hpp"
#include "common/counters.hpp"
#include "host/cancel.hpp"
#include "isa/inst.hpp"
#include "mem/hierarchy.hpp"
#include "ooo/config.hpp"
#include "ooo/predictor.hpp"
#include "sim/mem_order.hpp"
#include "sim/run_stats.hpp"

namespace diag::ooo
{

#define DIAG_OOO_COUNTERS(X)                                            \
    /* pipeline stages, advanced once per run by the retired count */   \
    X(fetches) X(decodes) X(renames) X(dispatches) X(issues)            \
    X(iq_wakeups) X(commits)                                            \
    /* register file, load/store queue and where loads were served */   \
    X(regfile_reads) X(regfile_writes) X(lsq_searches) X(stl_forwards)  \
    X(loads) X(stores) X(l1_loads) X(l2_loads) X(dram_loads)            \
    /* functional units and branch prediction */                        \
    X(fu_int) X(fu_mul) X(fu_div) X(fu_fpu)                             \
    X(bp_lookups) X(btb_lookups) X(ras_lookups) X(mispredicts)

/** Out-of-order core activity, per pipeline structure. */
DIAG_COUNTER_SET(OooCounter, DIAG_OOO_COUNTERS)

/** The baseline's counters: one set per OooProcessor, shared by its
 *  cores. */
using OooCounters = CounterSet<OooCounter>;

/** One 8-issue out-of-order core: the baseline processor's
 *  per-thread unit (sim::Processor). */
class OooCore
{
  public:
    using Config = OooConfig;
    using Counters = OooCounters;

    OooCore(const OooConfig &cfg, unsigned core_id,
            mem::MemHierarchy &mh, OooCounters &counters);

    /** Run a thread to EBREAK, a stop, or the instruction budget. */
    sim::ThreadResult runThread(Addr entry, const sim::InitRegs &init_regs,
                                SparseMemory &mem, Cycle start_cycle,
                                u64 max_insts);

    /** Attach (or detach with nullptr) a cooperative cancellation
     *  token, polled at every instruction boundary under the contract
     *  DiAG's rings share (sim::boundaryStop). */
    void setCancelToken(const host::CancelToken *t) { cancel_ = t; }

    /** Reset per-run state: the decoded-instruction cache and every
     *  functional-unit occupancy calendar (predictor state lives in
     *  runThread's ThreadState and needs no reset). */
    void
    reset()
    {
        icache_.clear();
        for (FuPool *p : {&alu_, &mul_, &div_, &fpu_, &fpdiv_,
                          &memport_})
            for (BusyCalendar &u : p->units)
                u.clear();
    }

  private:
    /**
     * Functional-unit pool. Each unit keeps an occupancy calendar so
     * that instructions whose operands become ready early can slot
     * into gaps before later reservations (the timestamp model
     * processes instructions in program order, but issue is not
     * monotonic in time).
     */
    struct FuPool
    {
        std::vector<BusyCalendar> units;

        explicit FuPool(unsigned n) : units(n) {}

        /** Acquire the unit giving the earliest grant >= @p when (the
         *  lowest-numbered one on a tie, so probing stops at the first
         *  unit free at @p when). */
        Cycle
        acquire(Cycle when, Cycle occupancy)
        {
            size_t best = 0;
            Cycle best_grant = units[0].probe(when, occupancy);
            for (size_t i = 1; i < units.size() && best_grant != when;
                 ++i) {
                const Cycle g = units[i].probe(when, occupancy);
                if (g < best_grant) {
                    best_grant = g;
                    best = i;
                }
            }
            return units[best].reserve(when, occupancy);
        }
    };

    const isa::DecodedInst &decodeAt(Addr pc, SparseMemory &mem);

    FuPool &poolFor(isa::ExecClass cls);

    // ---- runThread's phases, in the order one instruction runs them ----
    // Inline: each runs once per instruction, and out-of-line calls
    // cost the OoO ~6 % of its simulation speed.

    /** One software thread's state from instruction to instruction. */
    struct ThreadState;

    /** One dynamic instruction's timestamps and results. */
    struct DynInst;

    /** Host cancellation, the misaligned-pc trap and the cycle
     *  ceiling; false when the thread stopped. */
    inline bool boundary(ThreadState &t);

    /** The invalid-encoding trap (false), else a fetch slot after the
     *  redirect gate and any I-miss. */
    inline bool fetch(ThreadState &t, DynInst &d);

    /** Once a ROB, an IQ and (memory ops) an LSQ entry are free. */
    inline void dispatch(ThreadState &t, DynInst &d);

    /** Once the operands are ready and a functional unit is free. */
    inline void issue(ThreadState &t, DynInst &d);

    /** Loads wait for the store-address gate and a memory level (or
     *  forward); then the destination write. */
    inline void execute(ThreadState &t, DynInst &d);

    /** Pick a control outcome (none, taken bubble, BTB miss,
     *  mispredict) and apply it to the frontend. */
    inline void control(ThreadState &t, const DynInst &d);

    /** In order, width per cycle; false when the thread halted. */
    inline bool commit(ThreadState &t, const DynInst &d);

    const OooConfig &cfg_;
    unsigned core_id_;
    mem::MemHierarchy &mh_;
    OooCounters &counters_;
    std::unordered_map<Addr, isa::DecodedInst> icache_;
    FuPool alu_, mul_, div_, fpu_, fpdiv_, memport_;
    const host::CancelToken *cancel_ = nullptr; //!< null = no watchdog
};

} // namespace diag::ooo

#endif // DIAG_OOO_CORE_HPP
