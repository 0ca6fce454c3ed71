/**
 * @file
 * Static legality scan of a simt_s/simt_e thread-pipelining region
 * (paper §4.4.3, §5.4). One implementation serves both the runtime
 * (the ring control unit pre-validates a region before committing
 * clusters to it) and the static analyzer (diag-lint reports *why* a
 * region cannot pipeline before a simulation is ever run).
 */
#ifndef DIAG_ANALYSIS_SIMT_SCAN_HPP
#define DIAG_ANALYSIS_SIMT_SCAN_HPP

#include "common/sparse_mem.hpp"
#include "isa/inst.hpp"

namespace diag::analysis
{

/** Outcome of scanning one candidate region. */
struct SimtScan
{
    enum class Status : u8
    {
        Ok,              //!< region is pipelinable
        NotSimtS,        //!< the scanned pc is not a simt_s
        Unterminated,    //!< no simt_e within the ring's capacity
        MismatchedEnd,   //!< a simt_e closing a *different* simt_s
        TooManyLines,    //!< region spans more I-lines than the ring
        NestedStart,     //!< simt_s inside the region
        IllegalInst,     //!< invalid/indirect/ebreak/ecall in the body
        BackwardBranch,  //!< backward control flow in the body
        LoopCarriedDep,  //!< cross-iteration register dependence
    };

    Status status = Status::NotSimtS;
    Addr simt_e_pc = 0;  //!< set when a matching simt_e was found
    Addr fault_pc = 0;   //!< instruction that broke legality (if any)
    isa::SimtStartFields fields{};
    unsigned lines = 0;  //!< I-lines the region spans (when known)
    /** The offending register for LoopCarriedDep. */
    isa::RegId dep_reg = isa::kNoReg;

    bool ok() const { return status == Status::Ok; }
};

/** Human-readable name of a scan status. */
const char *simtScanStatusName(SimtScan::Status s);

/**
 * Scan the region opened by the simt_s at @p simt_s_pc in @p mem.
 * @p line_bytes is the I-line (cluster) size in bytes and
 * @p clusters_per_ring bounds both the instruction capacity and the
 * line span of a pipelinable region.
 *
 * Legality rules (must match what the ring can execute):
 *  - a matching simt_e (l_offset pointing back at this simt_s) within
 *    clusters_per_ring * (line_bytes / 4) instructions;
 *  - the region's line span fits the ring's clusters;
 *  - no invalid encodings, indirect jumps, ebreak/ecall, or nested
 *    simt_s inside the body, and no backward control flow;
 *  - no register other than rc may carry a value from one iteration
 *    into a read of the next (threads see only the simt_s snapshot
 *    plus their own writes).
 */
SimtScan scanSimtRegion(Addr simt_s_pc, const SparseMemory &mem,
                        unsigned line_bytes,
                        unsigned clusters_per_ring);

/** Threads one region entry may launch; longer regions are capped. */
inline constexpr u64 kSimtTripCap = u64{1} << 20;

/** Trip count of one region entry (see simtTripCount). */
struct SimtTrips
{
    u64 trips = 0;
    bool capped = false;  //!< the counter had not exited at the cap
};

/**
 * Threads a region entry launches: simt_e's do-while over the i32
 * counter rc, starting at @p rc0 and advancing by @p step, continuing
 * while rc < @p end (step >= 0) or rc > @p end (step < 0). Capped at
 * kSimtTripCap. Closed form, with a literal walk only when the
 * counter wraps the i32 range. Shared by the ring's thread pipeline
 * and the stream analyzer so both see the same trip count.
 */
SimtTrips simtTripCount(u32 rc0, u32 step, u32 end);

} // namespace diag::analysis

#endif // DIAG_ANALYSIS_SIMT_SCAN_HPP
