/**
 * @file
 * Engine-agnostic run statistics returned by both the DiAG model and
 * the out-of-order baseline; consumed by the harness and energy model.
 * Also the per-thread launch spec and result both engines share.
 */
#ifndef DIAG_SIM_RUN_STATS_HPP
#define DIAG_SIM_RUN_STATS_HPP

#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "host/cancel.hpp"
#include "isa/opcodes.hpp"

namespace diag::sim
{

/**
 * Run-report key of one simt region counter: simt_region_<pc>_<field>,
 * the simt_s pc in eight hex digits and @p field one of entries,
 * threads or cycles (empty for the prefix they share). The DiAG engine
 * writes these keys; the bound validator, the bottleneck attribution
 * and the verifier's differential check read them.
 */
inline std::string
simtRegionKey(Addr simt_s_pc, const char *field)
{
    return detail::vformat("simt_region_%08x_%s", simt_s_pc, field);
}

/** (unified register, value) pairs a thread starts with. */
using InitRegs = std::vector<std::pair<isa::RegId, u32>>;

/** Initial state for one software thread. */
struct ThreadSpec
{
    Addr entry = 0;
    InitRegs init_regs;  //!< applied before start
};

/** Result of running one software thread to completion on a unit (a
 *  DiAG ring or an OoO core). */
struct ThreadResult
{
    Cycle finish = 0;       //!< cycle the thread stopped
    u64 retired = 0;        //!< instructions committed
    bool halted = false;    //!< reached EBREAK/ECALL
    bool faulted = false;   //!< invalid encoding or misaligned PC
    bool timed_out = false; //!< watchdog / cycle or inst budget
    bool aborted = false;   //!< detected fault, recovery exhausted
    Addr stop_pc = 0;       //!< PC of the halting instruction
    std::string stop_reason; //!< one-line reason when not halted
    u32 regs[isa::kNumRegs] = {}; //!< architectural registers at stop
};

/**
 * The stops every unit checks at its boundary number @p n (a DiAG
 * activation, an OoO instruction) before running @p pc: host
 * cancellation (@p cancel's flag every boundary, its wall-clock
 * deadline at the first and every 64th after) and the misaligned-pc
 * trap (jalr clears only bit 0). True, with @p res's flag and
 * stop_reason set, when the thread stops here. A unit that spends its
 * instruction budget returns unflagged; the processor reports it.
 */
inline bool
boundaryStop(const host::CancelToken *cancel, u64 n, Addr pc,
             ThreadResult &res)
{
    if (cancel && (cancel->cancelled() ||
                   ((n & 63) == 0 && cancel->expired()))) {
        res.timed_out = true;
        res.stop_reason =
            detail::vformat("host watchdog: %s", cancel->reason());
        return true;
    }
    if (pc & 3u) {
        res.faulted = true;
        res.stop_reason = detail::vformat("trap: misaligned pc 0x%x", pc);
        return true;
    }
    return false;
}

/** Result of running a workload on a timing model. */
struct RunStats
{
    Cycle cycles = 0;        //!< total execution time in core cycles
    u64 instructions = 0;    //!< retired (committed) instructions
    bool halted = false;     //!< reached EBREAK normally
    bool timed_out = false;  //!< watchdog / max_cycles / inst budget
    bool faulted = false;    //!< hardware trap (bad encoding, bad PC)
    bool aborted = false;    //!< detected-unrecoverable fault abort
    std::string stop_reason; //!< one-line reason when not halted
    StatGroup counters{"run"}; //!< model-specific activity counters

    /** A fired host::CancelToken stopped the run, not the model.
     *  (The reason reads "thread N: host watchdog: ...".) */
    bool
    hostStopped() const
    {
        return timed_out &&
               stop_reason.find("host watchdog") != std::string::npos;
    }

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

} // namespace diag::sim

#endif // DIAG_SIM_RUN_STATS_HPP
