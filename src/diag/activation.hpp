/**
 * @file
 * The activation engine: simulates one pass of the PC lane through one
 * processing cluster (an "activation"), computing per-PE dataflow
 * timing over the register lanes, memory-system interaction through the
 * cluster LSU, and control-flow (PC-lane) retirement. This is the core
 * of the DiAG model — both serial execution and SIMT pipeline stages
 * are sequences of activations.
 */
#ifndef DIAG_DIAG_ACTIVATION_HPP
#define DIAG_DIAG_ACTIVATION_HPP

#include "diag/cluster.hpp"
#include "diag/config.hpp"
#include "diag/counters.hpp"
#include "diag/lanes.hpp"
#include "diag/thread_ctx.hpp"
#include "mem/hierarchy.hpp"
#include "trace/tracer.hpp"

namespace diag::fault
{
class FaultController;
}

namespace diag::trace
{
class AddrTrace;
}

namespace diag::core
{

/** How an activation interprets simt instructions. */
enum class ActMode : u8
{
    Serial,    //!< normal execution; simt_e loops back (scalar semantics)
    SimtStage, //!< pipeline stage; simt_e terminates the thread
};

/** Why an activation ended. */
enum class ActExit : u8
{
    FellThrough, //!< PC ran off the end of the line
    Redirect,    //!< control transfer out of the cluster
    Halt,        //!< ebreak/ecall or invalid encoding
    SimtTrap,    //!< serial mode reached a simt_s (not executed)
    ThreadEnd,   //!< stage mode retired its simt_e
};

/**
 * Activation request. The lane file itself is passed to run() by
 * reference and updated in place — an activation used to copy the
 * whole LaneFile in and out (three ~1.5KB copies per activation),
 * which dominated the runThread profile. The batched-lane-propagation
 * form (DESIGN.md §15) applies the cluster output-latch transfer as
 * one in-place sweep instead.
 */
struct ActivationInput
{
    Cluster *cluster = nullptr;
    Addr entry_pc = 0;
    Cycle pc_enter = 0;       //!< PC-lane arrival at the cluster
    Cycle min_start = 0;      //!< earliest correct execution (decode,
                              //!< squash re-steer, pipeline entry)
    ActMode mode = ActMode::Serial;
    bool trap_on_simt = false; //!< serial: stop at simt_s for the CU
    u32 simt_step = 0;         //!< stage mode: step value for simt_e
};

/** Activation outcome. */
struct ActivationOutput
{
    ActExit exit = ActExit::FellThrough;
    bool faulted = false;     //!< Halt caused by an invalid encoding
    bool redirect_backward = false;  //!< Redirect target is at or
                                     //!< before the branch (a loop)
    Addr exit_pc = 0;         //!< next PC (or the simt_s PC on SimtTrap)
    Cycle exit_resolve = 0;   //!< cycle the next PC was known in order
    Cycle branch_done = 0;    //!< redirecting PE's execute-done cycle
                              //!< (= exit_resolve for other exits);
                              //!< earliest cycle a predicted-taken
                              //!< backward branch can re-steer
    Cycle pc_exit = 0;        //!< PC lane left the cluster
    Cycle end_cycle = 0;      //!< PEs done and retire sweep finished
    Cycle compute_done = 0;   //!< all PEs done executing; the cluster
                              //!< can accept a new (speculative)
                              //!< activation from this cycle on
    u64 retired = 0;
    u64 taken_branches = 0;
};

/** Simulates activations against the shared memory system. */
class ActivationEngine
{
  public:
    ActivationEngine(const DiagConfig &cfg, mem::MemHierarchy &mh,
                     unsigned mem_port, DiagCounters &counters);

    /** Run one activation for the thread @p tmc. @p regs is the lane
     *  file at the cluster input latch; it is updated in place and
     *  holds the output-latch state on return (on every exit kind). */
    ActivationOutput run(const ActivationInput &in, LaneFile &regs,
                         ThreadMemCtx &tmc);

    /** Attach (or detach with nullptr) a fault controller. Every hook
     *  in the hot path is a single null check when detached. */
    void setFaultController(fault::FaultController *fc) { fc_ = fc; }

    /** Attach (or detach with nullptr) a tracer for lane-write,
     *  memory-lane, and LSU-queue events; @p ring labels the track.
     *  Same hot-path contract: one null check when detached. */
    void
    setTracer(trace::Tracer *t, unsigned ring)
    {
        trc_ = t;
        ring_ = static_cast<u8>(ring);
    }

    /** Attach (or detach with nullptr) the address recorder for the
     *  stream validator. Same hot-path contract: one null check when
     *  detached, and the hook never feeds back into timing. */
    void setAddrTrace(trace::AddrTrace *t) { atrc_ = t; }

  private:
    /** Cycles until a load's data is available, with full accounting.
     *  @p pe is the issuing PE slot (keys the stride prefetcher). */
    Cycle serveLoad(Cluster &cl, ThreadMemCtx &tmc, Addr ea, u8 size,
                    Cycle issue, unsigned pe);

    /** Occupy LSU + cache for a committing store. */
    void commitStore(Cluster &cl, Addr ea, Cycle commit);

    const DiagConfig &cfg_;
    mem::MemHierarchy &mh_;
    unsigned mem_port_;
    DiagCounters &counters_;
    u32 line_bytes_;
    fault::FaultController *fc_ = nullptr; //!< null = injection off
    trace::Tracer *trc_ = nullptr;         //!< null = tracing off
    trace::AddrTrace *atrc_ = nullptr;     //!< null = no address log
    u8 ring_ = 0;                          //!< ring id for trace tracks
};

} // namespace diag::core

#endif // DIAG_DIAG_ACTIVATION_HPP
