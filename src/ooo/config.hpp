/**
 * @file
 * Configuration of the out-of-order baseline CPU. Defaults follow the
 * paper's §7.1 baseline: an aggressive core that issues, dispatches,
 * and retires up to 8 instructions with a 2-cycle latency per frontend
 * stage, 64 KB L1s and a 4-8 MB unified L2, 12 cores for the
 * multi-threaded comparison, at the same 2 GHz clock as DiAG.
 */
#ifndef DIAG_OOO_CONFIG_HPP
#define DIAG_OOO_CONFIG_HPP

#include <string>

#include "mem/params.hpp"

namespace diag::ooo
{

/** All parameters of the OoO baseline. */
struct OooConfig
{
    std::string name = "OoO-8w";

    // ---- widths and windows ----
    unsigned width = 8;          //!< fetch/issue/commit width
    unsigned rob_entries = 256;
    unsigned iq_entries = 96;
    unsigned lsq_entries = 64;

    // ---- frontend ----
    Cycle decode_latency = 2;    //!< paper: 2 cycles per stage
    Cycle rename_latency = 2;
    Cycle dispatch_latency = 2;
    Cycle mispredict_penalty = 8; //!< resolve-to-refill bubble
    Cycle taken_branch_bubble = 1;
    Cycle btb_miss_penalty = 2;
    /**
     * Extra cycles on every register dependency edge. The paper's
     * baseline issues/dispatches with a 2-cycle latency per stage
     * (§7.1), so dependent instructions cannot issue back-to-back.
     */
    Cycle wakeup_delay = 1;

    // ---- predictor ----
    unsigned gshare_entries = 4096;  //!< 2-bit counters
    unsigned gshare_history = 12;    //!< global history bits
    unsigned btb_entries = 1024;
    unsigned ras_entries = 16;

    // ---- functional units ----
    unsigned alu_units = 6;
    unsigned mul_units = 2;
    unsigned div_units = 1;
    unsigned fpu_units = 4;
    unsigned fpdiv_units = 1;  // ARM-class cores carry one FP divider
    unsigned mem_ports = 2;

    // ---- store buffer (forwarding window) ----
    unsigned store_buffer_entries = 32;

    // ---- system ----
    unsigned cores = 1;
    double freq_ghz = 2.0;
    mem::MemParams mem;

    u64 max_insts = 500'000'000;
    /** Cycle ceiling: runs past this report a structured timeout
     *  (same contract as DiagConfig::max_cycles). */
    u64 max_cycles = 2'000'000'000;

    bool operator==(const OooConfig &) const = default;

    /** The paper's single-core baseline (64KB L1s, 4MB L2). */
    static OooConfig baseline8();

    /** The 12-core multithreaded baseline. */
    static OooConfig multicore12();
};

} // namespace diag::ooo

#endif // DIAG_OOO_CONFIG_HPP
