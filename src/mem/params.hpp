/**
 * @file
 * Memory-system parameter structures. Defaults follow the paper's
 * Table 2 configurations (32-128 KB L1D, 32 KB L1I, 4 MB L2) with hit
 * latencies appropriate for the 2 GHz simulated clock.
 */
#ifndef DIAG_MEM_PARAMS_HPP
#define DIAG_MEM_PARAMS_HPP

#include "common/types.hpp"

namespace diag::mem
{

/** Parameters of one cache level. */
struct CacheParams
{
    u32 size_bytes = 32 * 1024;
    u32 assoc = 4;          //!< 1 = direct-mapped
    u32 line_bytes = 64;
    u32 banks = 1;          //!< independently accessible banks
    Cycle hit_latency = 4;  //!< cycles from bank grant to data
    Cycle bank_occupancy = 1;  //!< cycles a bank is held per access

    bool operator==(const CacheParams &) const = default;
};

/** Main-memory (DRAM) channel parameters. */
struct MainMemoryParams
{
    Cycle latency = 120;       //!< cycles from request to first data
    Cycle line_occupancy = 8;  //!< channel cycles consumed per line

    bool operator==(const MainMemoryParams &) const = default;
};

/** Full hierarchy: per-port L1s, a shared L2, and DRAM. */
struct MemParams
{
    CacheParams l1i{32 * 1024, 1, 64, 1, 2, 1};   // direct-mapped L1I
    CacheParams l1d{64 * 1024, 4, 64, 4, 4, 1};
    CacheParams l2{4 * 1024 * 1024, 8, 64, 8, 20, 2};
    MainMemoryParams dram;

    bool operator==(const MemParams &) const = default;
};

} // namespace diag::mem

#endif // DIAG_MEM_PARAMS_HPP
