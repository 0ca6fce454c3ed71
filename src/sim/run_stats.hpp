/**
 * @file
 * Engine-agnostic run statistics returned by both the DiAG model and
 * the out-of-order baseline; consumed by the harness and energy model.
 */
#ifndef DIAG_SIM_RUN_STATS_HPP
#define DIAG_SIM_RUN_STATS_HPP

#include <string>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

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
