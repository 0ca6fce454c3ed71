/**
 * @file
 * One out-of-order core. The model is a one-pass timestamp simulator:
 * instructions are processed in program order (functional oracle) and
 * each dynamic instruction receives fetch / dispatch / issue /
 * complete / commit timestamps subject to frontend width and latency,
 * branch prediction, ROB/IQ/LSQ windows, functional-unit pools, and
 * the shared memory hierarchy. This style models the same constraints
 * a cycle-driven OoO model enforces, at much higher simulation speed.
 */
#ifndef DIAG_OOO_CORE_HPP
#define DIAG_OOO_CORE_HPP

#include <string>
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

/** Outcome of running one software thread on a core. */
struct CoreResult
{
    Cycle finish = 0;
    u64 retired = 0;
    bool halted = false;
    bool faulted = false;
    bool timed_out = false;  //!< cycle ceiling or instruction budget
    Addr stop_pc = 0;
    std::string stop_reason; //!< one-line reason when not halted
    u32 regs[isa::kNumRegs] = {};
};

/** One 8-issue out-of-order core. */
class OooCore
{
  public:
    OooCore(const OooConfig &cfg, unsigned core_id,
            mem::MemHierarchy &mh, OooCounters &counters);

    /** Run a thread to EBREAK (or the instruction budget). */
    CoreResult runThread(Addr entry,
                         const std::vector<std::pair<isa::RegId, u32>>
                             &init_regs,
                         SparseMemory &mem, Cycle start_cycle,
                         u64 max_insts);

    /** Attach (or detach with nullptr) a cooperative cancellation
     *  token polled every 64 instructions; a fired token stops the
     *  run as a structured timeout (same contract as DiAG's rings). */
    void setCancelToken(const host::CancelToken *t) { cancel_ = t; }

    /** Reset per-run state: the decoded-instruction cache and every
     *  functional-unit occupancy calendar (predictor state is local to
     *  runThread and needs no reset). */
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

        /** Acquire the unit giving the earliest grant >= @p when. */
        Cycle
        acquire(Cycle when, Cycle occupancy)
        {
            size_t best = 0;
            Cycle best_grant = units[0].probe(when, occupancy);
            for (size_t i = 1; i < units.size(); ++i) {
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
