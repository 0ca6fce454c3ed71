/**
 * @file
 * Static store-to-load memory-dependence analysis (diag-lint pass 5).
 *
 * DiAG's memory lanes (paper §5.2) are a per-thread CAM that forwards
 * a store's data to younger loads of the same address. Whether a load
 * hits that forwarding path is a *static* property of the address
 * expressions, because every address in a dataflow region is a short
 * base+offset chain over the lanes. This pass reconstructs those
 * chains with the analyzers' shared lane algebra (symval.hpp) and
 *
 *  (a) classifies each load as lane-forwardable (a covering older
 *      store in the CAM window), LSU-serialized (a partially
 *      overlapping older store that cannot forward), or unknown-alias;
 *  (b) detects cross-iteration store->load dependences inside
 *      simt_s/simt_e regions — threads snapshot the lanes at simt_s,
 *      so a load that reads another iteration's store is a
 *      pipelined-thread race (Severity::Error);
 *  (c) estimates memory-lane CAM capacity pressure per region.
 */
#ifndef DIAG_ANALYSIS_MEMDEP_HPP
#define DIAG_ANALYSIS_MEMDEP_HPP

#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/diagnostic.hpp"
#include "analysis/symval.hpp"

namespace diag::analysis
{

struct LintOptions;

/** How a load relates to older stores on the same lane-CAM window. */
enum class LoadClass : u8
{
    UnknownAlias,     //!< no decision: opaque bases in the window
    LaneForwardable,  //!< covered by an older store: CAM forwards
    LsuSerialized,    //!< partial overlap: must serialize via the LSU
};

/** Printable name of a load class. */
const char *loadClassName(LoadClass c);

/** Per-load classification result. */
struct LoadDep
{
    Addr pc = 0;                //!< the load
    Addr store_pc = 0;          //!< deciding store (0 when none)
    LoadClass cls = LoadClass::UnknownAlias;
    SymVal ea;                  //!< reconstructed address value
};

/** One store with its reconstructed address expression. */
struct StoreRef
{
    Addr pc = 0;
    SymVal ea;
};

/** Memory-dependence summary of one pipelinable simt region. */
struct RegionMemDep
{
    Addr simt_s_pc = 0;
    Addr simt_e_pc = 0;
    unsigned loads_per_iter = 0;
    unsigned stores_per_iter = 0;
    /** A definite cross-iteration store->load (the Error case). */
    bool carried_race = false;
    /** Estimated concurrent CAM entries demanded vs. the window. */
    unsigned cam_demand = 0;
    /** Per-load classification within one iteration (thread). */
    std::vector<LoadDep> loads;
    /** Per-iteration stores (address streams, for the bound model). */
    std::vector<StoreRef> stores;
};

/** All findings of the memdep pass, for downstream consumers. */
struct MemDepResult
{
    std::vector<LoadDep> loads;        //!< straight-line (block) scope
    std::vector<RegionMemDep> regions; //!< pipelinable simt regions
};

/**
 * Pass 5: run the store-to-load dependence analysis over @p cfg,
 * appending diagnostics to @p report. Region-scope races are errors;
 * everything else reports as notes (forwardability and CAM pressure
 * are performance properties, not bugs).
 */
MemDepResult checkMemDep(const Cfg &cfg, const Program &prog,
                         const LintOptions &opt, LintResult &report);

} // namespace diag::analysis

#endif // DIAG_ANALYSIS_MEMDEP_HPP
