/**
 * @file
 * OooProcessor: the multicore out-of-order baseline (paper §7.1's
 * 12-core, 8-issue configuration) — the engine shell
 * (sim::Processor) over one OooCore per core, with private L1s and a
 * shared L2. The harness drives it exactly as it drives DiAG.
 */
#ifndef DIAG_OOO_PROCESSOR_HPP
#define DIAG_OOO_PROCESSOR_HPP

#include "ooo/core.hpp"
#include "sim/processor.hpp"

namespace diag::ooo
{

/** Initial state for one software thread. */
using ThreadSpec = sim::ThreadSpec;

/** The full baseline chip: N cores over private L1s and a shared L2. */
class OooProcessor : public sim::Processor<OooCore>
{
  public:
    explicit OooProcessor(const OooConfig &cfg)
        : Processor(cfg, "ooo", cfg.cores)
    {
        for (unsigned c = 0; c < cfg_.cores; ++c)
            units_.push_back(
                std::make_unique<OooCore>(cfg_, c, mh_, counters_));
    }
};

} // namespace diag::ooo

#endif // DIAG_OOO_PROCESSOR_HPP
