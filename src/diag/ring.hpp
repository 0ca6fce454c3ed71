/**
 * @file
 * A dataflow ring: a chain of processing clusters with a control unit
 * (paper §5.1.3). The control unit fetches I-lines into clusters,
 * tracks which lines are resident (enabling backward-branch datapath
 * reuse), prefetches the fall-through line, and orchestrates the SIMT
 * thread pipeline for simt_s/simt_e regions.
 */
#ifndef DIAG_DIAG_RING_HPP
#define DIAG_DIAG_RING_HPP

#include <set>
#include <unordered_map>
#include <vector>

#include <string>

#include "diag/activation.hpp"
#include "host/cancel.hpp"
#include "mem/bus.hpp"

namespace diag::core
{

/** Result of running one software thread to completion on a ring. */
struct ThreadResult
{
    Cycle finish = 0;      //!< cycle the thread halted
    u64 retired = 0;       //!< instructions committed
    bool halted = false;   //!< reached EBREAK/ECALL
    bool faulted = false;  //!< invalid encoding or misaligned PC
    bool timed_out = false; //!< watchdog / cycle or inst budget
    bool aborted = false;  //!< detected fault, recovery exhausted
    Addr stop_pc = 0;      //!< PC of the halting instruction
    std::string stop_reason; //!< one-line reason when not halted
    LaneFile final_regs{}; //!< architectural registers at halt
};

/** One dataflow ring and its control unit. */
class Ring
{
  public:
    Ring(const DiagConfig &cfg, unsigned index, mem::MemHierarchy &mh,
         mem::Bus &bus, DiagCounters &counters);

    /**
     * Run a thread starting at @p entry with initial lane state
     * @p init_regs against memory @p mem. @p start_cycle is the cycle
     * the thread becomes runnable (MT launch skew).
     */
    ThreadResult runThread(Addr entry, const LaneFile &init_regs,
                           SparseMemory &mem, Cycle start_cycle,
                           u64 max_insts);

    void reset();

    /** Attach (or detach with nullptr) a fault controller; forwards to
     *  the activation engine's per-instruction hooks. */
    void setFaultController(fault::FaultController *fc);

    /** Attach (or detach with nullptr) a tracer; forwards to the
     *  activation engine. Every hook is one null check when off and
     *  never alters timing — a traced run retires on the same cycle
     *  as an untraced one. */
    void setTracer(trace::Tracer *t);

    /** Attach (or detach with nullptr) the stream validator's address
     *  recorder; forwards to the activation engine. Region entries
     *  record their launch parameters (rc0/step/trips) so predicted
     *  affine maps can be replayed against observed addresses. Same
     *  zero-overhead contract as setTracer. */
    void setAddrTrace(trace::AddrTrace *t);

    /**
     * Attach (or detach with nullptr) a cooperative cancellation
     * token. runThread polls it at activation boundaries (the
     * cancelled flag every activation, the wall-clock deadline every
     * 64th) and stops with a structured timeout when it fires. Host
     * policy only: an uncancelled run computes cycle-identical results
     * with or without a token attached.
     */
    void setCancelToken(const host::CancelToken *t) { cancel_ = t; }

    /** Pre-validate a simt region starting at @p simt_s_pc. Public so
     *  tests can check it agrees with the static analyzer. */
    struct SimtRegion
    {
        bool ok = false;
        Addr simt_e_pc = 0;
        isa::SimtStartFields fields{};
    };
    SimtRegion scanSimtRegion(Addr simt_s_pc, SparseMemory &mem) const;

  private:
    /** A line made resident in a cluster. */
    struct Resident
    {
        Cluster *cluster;
        Cycle ready;   //!< fetched + decoded
        bool reused;   //!< was already resident (datapath reuse)
    };

    /**
     * Make @p line resident, fetching into an LRU victim if needed,
     * with the request issued no earlier than @p when.
     */
    Resident ensureLoaded(Addr line, Cycle when, SparseMemory &mem);

    /** Pick the LRU unpinned cluster (panics if all are pinned). */
    Cluster &chooseVictim();

    /** Fetch + decode @p line into @p cl; returns the ready cycle. */
    Cycle loadLine(Cluster &cl, Addr line, Cycle when,
                   SparseMemory &mem);

    /** Fire-and-forget prefetch of the fall-through line. */
    void prefetch(Addr line, Cycle when, SparseMemory &mem);

    // ---- runThread's phases, in the order one activation runs them ----

    /** One software thread's state from activation to activation. */
    struct ThreadState;

    /** Where the thread goes after a phase. */
    enum class Step : u8
    {
        Go,    //!< on to the next phase of this activation
        Next,  //!< on to the next activation boundary
        Stop,  //!< the thread stopped; ThreadState::res is final
    };

    /** Activation boundary: host cancellation, the misaligned-pc trap
     *  and the watchdogs, then faultBoundary() when faults are armed. */
    Step boundary(ThreadState &t);

    /** Fault boundary: checkpoint, inject due faults, parity scrub. */
    Step faultBoundary(ThreadState &t);

    /** Line residency: make the pc's I-line resident (fetching it or
     *  reusing a resident datapath). */
    Resident residency(ThreadState &t);

    /** Run one serial activation on @p got's cluster into @p act and
     *  retire it, unless the lockstep oracle rolls it back. */
    Step activate(ThreadState &t, const Resident &got,
                  ActivationOutput &act);

    /** After an activation on @p cl ending at @p end: roll back to the
     *  boundary checkpoint (Next) if the lockstep oracle diverged, or
     *  abort when the recovery budget is spent (Stop). */
    Step lockstep(ThreadState &t, Cluster &cl, Cycle end);

    /** Exit handling: dispatch on how @p act left its cluster. */
    Step exitActivation(ThreadState &t, const Resident &got,
                        const ActivationOutput &act);

    /** Halt exit: ebreak/ecall, or a trap on an invalid encoding. */
    Step halt(ThreadState &t, const ActivationOutput &act);

    /** Fell-through exit: hand the lanes to the cluster holding @p next
     *  through the inter-cluster latch, @p resolve being when the next
     *  pc was known. */
    void handOver(ThreadState &t, Addr next, Cycle resolve);

    /** Taken control transfer to a far or non-resident target: the
     *  register file crosses the bus, plus the squash re-steer. */
    void farRedirect(ThreadState &t, Addr next, Cycle resolve);

    /** Redirect exit from @p cl: datapath reuse for a backward branch
     *  into a resident line, a latch handover to the next line, or
     *  farRedirect(). */
    void redirect(ThreadState &t, const Cluster &cl,
                  const ActivationOutput &act);

    /** simt_s trap: run the region as a thread pipeline, or fall back
     *  to one serial pass over it when it cannot pipeline. */
    Step simtTrap(ThreadState &t, const Resident &got,
                  const ActivationOutput &act);

    /**
     * Execute a simt region as a thread pipeline launched at
     * @p resolve, leaving @p t at the instruction after simt_e. False
     * when the cycle ceiling was exceeded mid-pipeline (structured
     * timeout); @p t's pc and timing are then untouched.
     */
    bool runSimtPipeline(const SimtRegion &region, Addr simt_s_pc,
                         Cycle resolve, ThreadState &t);

    /** Clusters not taken offline by fault recovery. */
    unsigned enabledClusters() const;

    /**
     * Graceful degradation: take @p cl offline and let the normal
     * allocation path remap its lines onto the survivors.
     */
    void disableCluster(Cluster &cl);

    /** warn()-level ring-state dump attached to watchdog aborts. */
    void dumpState(const char *why) const;

    const DiagConfig &cfg_;
    unsigned index_;
    mem::MemHierarchy &mh_;
    mem::Bus &bus_;
    DiagCounters &counters_;
    ActivationEngine engine_;
    std::vector<Cluster> clusters_;
    std::unordered_map<Addr, unsigned> resident_;  // line -> cluster
    std::set<Addr> pinned_lines_;      //!< simt region lines (no evict)
    std::set<Addr> not_pipelinable_;   //!< simt_s PCs that fell back
    u64 use_counter_ = 0;
    u32 line_bytes_;
    fault::FaultController *faults_ = nullptr; //!< null = no injection
    trace::Tracer *trc_ = nullptr;             //!< null = tracing off
    trace::AddrTrace *atrc_ = nullptr;         //!< null = no addr log
    const host::CancelToken *cancel_ = nullptr; //!< null = no watchdog
};

} // namespace diag::core

#endif // DIAG_DIAG_RING_HPP
