#include "diag/config.hpp"

namespace diag::core
{

namespace
{

/** Shared memory-system shape per Table 2 (sizes set per config). */
mem::MemParams
memFor(u32 l1d_kb, u32 l2_mb)
{
    mem::MemParams m;
    m.l1i = {32 * 1024, 1, 64, 1, 2, 1};  // 32KB direct-mapped L1I
    m.l1d = {l1d_kb * 1024, 4, 64, 4, 4, 1};
    m.l2 = {l2_mb * 1024 * 1024, 8, 64, 8, 20, 2};
    m.dram = {120, 8};
    return m;
}

} // namespace

DiagConfig
DiagConfig::i4c2()
{
    DiagConfig c;
    c.name = "I4C2";
    c.total_clusters = 2;
    c.fp_supported = false;
    c.freq_ghz = 0.1;  // 100 MHz FPGA-class prototype
    c.mem = memFor(32, 4);
    c.mem.l2 = {0, 0, 64, 1, 0, 0};  // no L2 in the I4C2 prototype
    c.mem.l2.size_bytes = 64 * 1024;  // modelled as a small SRAM
    c.mem.l2.assoc = 1;
    c.mem.l2.hit_latency = 10;
    c.simt_enabled = false;
    return c;
}

DiagConfig
DiagConfig::f4c2()
{
    DiagConfig c;
    c.name = "F4C2";
    c.total_clusters = 2;
    c.mem = memFor(64, 4);
    return c;
}

DiagConfig
DiagConfig::f4c16()
{
    DiagConfig c;
    c.name = "F4C16";
    c.total_clusters = 16;
    c.mem = memFor(128, 4);
    return c;
}

DiagConfig
DiagConfig::f4c32()
{
    DiagConfig c;
    c.name = "F4C32";
    c.total_clusters = 32;
    c.mem = memFor(128, 4);
    return c;
}

} // namespace diag::core
