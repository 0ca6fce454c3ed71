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
#include "common/stats.hpp"
#include "host/cancel.hpp"
#include "isa/inst.hpp"
#include "mem/hierarchy.hpp"
#include "ooo/config.hpp"
#include "ooo/predictor.hpp"
#include "sim/mem_order.hpp"

namespace diag::ooo
{

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
            mem::MemHierarchy &mh, StatGroup &stats);

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
    StatGroup &stats_;
    std::unordered_map<Addr, isa::DecodedInst> icache_;
    FuPool alu_, mul_, div_, fpu_, fpdiv_, memport_;
    const host::CancelToken *cancel_ = nullptr; //!< null = no watchdog

    // Lazy-bound counter handles: runThread never does a string-keyed
    // StatGroup::inc (DESIGN.md §10, hot-path counters).
    // Pipeline stages, advanced once per run by the retired count.
    StatCounter st_fetches_{stats_, "fetches"};
    StatCounter st_decodes_{stats_, "decodes"};
    StatCounter st_renames_{stats_, "renames"};
    StatCounter st_dispatches_{stats_, "dispatches"};
    StatCounter st_issues_{stats_, "issues"};
    StatCounter st_iq_wakeups_{stats_, "iq_wakeups"};
    StatCounter st_commits_{stats_, "commits"};
    // Per-instruction events.
    StatCounter st_regfile_reads_{stats_, "regfile_reads"};
    StatCounter st_regfile_writes_{stats_, "regfile_writes"};
    StatCounter st_lsq_searches_{stats_, "lsq_searches"};
    StatCounter st_stl_forwards_{stats_, "stl_forwards"};
    StatCounter st_l1_loads_{stats_, "l1_loads"};
    StatCounter st_l2_loads_{stats_, "l2_loads"};
    StatCounter st_dram_loads_{stats_, "dram_loads"};
    StatCounter st_loads_{stats_, "loads"};
    StatCounter st_stores_{stats_, "stores"};
    StatCounter st_fu_int_{stats_, "fu_int"};
    StatCounter st_fu_mul_{stats_, "fu_mul"};
    StatCounter st_fu_div_{stats_, "fu_div"};
    StatCounter st_fu_fpu_{stats_, "fu_fpu"};
    StatCounter st_bp_lookups_{stats_, "bp_lookups"};
    StatCounter st_btb_lookups_{stats_, "btb_lookups"};
    StatCounter st_ras_lookups_{stats_, "ras_lookups"};
    StatCounter st_mispredicts_{stats_, "mispredicts"};
};

} // namespace diag::ooo

#endif // DIAG_OOO_CORE_HPP
