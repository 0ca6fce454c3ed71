/**
 * @file
 * DiagProcessor: the full DiAG chip — dataflow rings over a shared
 * banked L1D / unified L2 hierarchy and the shared 512-bit bus.
 * Public entry point of the DiAG model.
 */
#ifndef DIAG_DIAG_PROCESSOR_HPP
#define DIAG_DIAG_PROCESSOR_HPP

#include <vector>

#include "diag/ring.hpp"
#include "sim/processor.hpp"

namespace diag::core
{

/** Initial state for one software thread. */
using ThreadSpec = sim::ThreadSpec;

/**
 * A complete DiAG processor instance: the engine shell
 * (sim::Processor) over one Ring per configured ring, plus what only
 * DiAG has — the shared bus, the fault, trace and address hooks, and
 * strict lint/verify before every run.
 */
class DiagProcessor : public sim::Processor<Ring>
{
  public:
    explicit DiagProcessor(DiagConfig cfg);

    /**
     * Attach (or detach with nullptr) a fault controller for the next
     * run: injection per its plan, parity/lockstep detection, and
     * checkpoint-rollback recovery in every ring. The caller keeps
     * ownership and reads the tally back after the run.
     */
    void attachFaults(fault::FaultController *fc);

    /**
     * Attach (or detach with nullptr) a tracer: every ring, the
     * activation engine, and the L1D banks emit typed events into it.
     * Purely observational — attaching a tracer never changes any
     * cycle the model computes. The caller keeps ownership and must
     * keep the tracer alive across the run; like the counters, a
     * tracer is unsynchronized and must stay confined to the worker
     * that owns this processor (DESIGN.md §11).
     */
    void attachTrace(trace::Tracer *t);

    /**
     * Attach (or detach with nullptr) the stream validator's address
     * recorder: every ring records simt region launch parameters and
     * the effective address of each executed load/store inside regions
     * (DESIGN.md §14). Same contract as attachTrace — purely
     * observational, caller-owned, worker-confined.
     */
    void attachAddrTrace(trace::AddrTrace *t);

  private:
    /** Strict lint (cfg.lint_enabled): fatal() on error-level
     *  findings. Also refuses golden-lockstep checking on more than
     *  one thread. */
    void checkRun(const Program &prog,
                  const std::vector<ThreadSpec> &threads) override;

    void resetShared() override { bus_.reset(); }

    /** The per-thread trace event. */
    void onThread(unsigned ring, unsigned thread, const ThreadSpec &spec,
                  Cycle launch, const sim::ThreadResult &tr) override;

    /** The always-present bus_transfers and bus_wait_cycles keys. */
    void emitShared(StatGroup &out) const override;

    mem::Bus bus_;
    fault::FaultController *faults_ = nullptr;
    trace::Tracer *trc_ = nullptr;  //!< null = tracing off
};

} // namespace diag::core

#endif // DIAG_DIAG_PROCESSOR_HPP
