#include "analysis/simt_scan.hpp"

#include <algorithm>
#include <limits>

#include "common/bits.hpp"
#include "isa/decoder.hpp"

namespace diag::analysis
{

using namespace diag::isa;

const char *
simtScanStatusName(SimtScan::Status s)
{
    switch (s) {
      case SimtScan::Status::Ok: return "ok";
      case SimtScan::Status::NotSimtS: return "not-simt-s";
      case SimtScan::Status::Unterminated: return "unterminated";
      case SimtScan::Status::MismatchedEnd: return "mismatched-end";
      case SimtScan::Status::TooManyLines: return "too-many-lines";
      case SimtScan::Status::NestedStart: return "nested-start";
      case SimtScan::Status::IllegalInst: return "illegal-inst";
      case SimtScan::Status::BackwardBranch: return "backward-branch";
      case SimtScan::Status::LoopCarriedDep: return "loop-carried-dep";
    }
    return "?";
}

SimtScan
scanSimtRegion(Addr simt_s_pc, const SparseMemory &mem,
               unsigned line_bytes, unsigned clusters_per_ring)
{
    SimtScan scan;
    const DecodedInst start = decode(mem.read32(simt_s_pc));
    if (start.op != Op::SIMT_S)
        return scan;
    scan.fields = simtStartFields(start);
    // The whole region [simt_s, simt_e] must fit in the ring's
    // clusters, and the body must be free of backward control flow and
    // indirect jumps (paper §4.4.3). Additionally reject loop-carried
    // register dependences: any register other than rc that is read
    // before it is written in the body would observe the previous
    // thread's value, which a pipeline cannot provide.
    const unsigned max_insts = clusters_per_ring * (line_bytes / 4);
    bool written[kNumRegs] = {};        // definitely written
    bool maybe_written[kNumRegs] = {};  // written on any path
    bool live_in[kNumRegs] = {};  // read before a definite write
    Addr conditional_until = 0;   // writes under a forward branch are
                                  // not definite
    scan.status = SimtScan::Status::Unterminated;
    for (unsigned i = 1; i <= max_insts; ++i) {
        const Addr pc = simt_s_pc + 4 * i;
        const DecodedInst di = decode(mem.read32(pc));
        if (di.op != Op::SIMT_E) {
            for (const RegId src : {di.rs1, di.rs2, di.rs3}) {
                if (src != kNoReg && src != kRegZero &&
                    src != scan.fields.rc && !written[src])
                    live_in[src] = true;
            }
            if ((di.isBranch() || di.op == Op::JAL) && di.imm > 0)
                conditional_until = std::max(
                    conditional_until,
                    pc + static_cast<u32>(di.imm));
            if (di.writesReg() && di.rd != scan.fields.rc) {
                maybe_written[di.rd] = true;
                if (pc >= conditional_until)
                    written[di.rd] = true;
            }
        }
        if (di.op == Op::SIMT_E) {
            scan.simt_e_pc = pc;
            if (simtEndFields(di).lOffset != 4 * i) {
                // This simt_e closes a different simt_s.
                scan.status = SimtScan::Status::MismatchedEnd;
                scan.fault_pc = pc;
                return scan;
            }
            // Check the line span fits the ring.
            const Addr first_line =
                alignDown(simt_s_pc + 4, line_bytes);
            const Addr last_line = alignDown(pc, line_bytes);
            scan.lines = (last_line - first_line) / line_bytes + 1;
            if (scan.lines > clusters_per_ring) {
                scan.status = SimtScan::Status::TooManyLines;
                scan.fault_pc = pc;
                return scan;
            }
            // Loop-carried register dependence: a register that can
            // carry a value from one iteration into a read of the
            // next cannot be pipelined (threads see only the simt_s
            // snapshot plus their own writes).
            for (unsigned r = 1; r < kNumRegs; ++r) {
                if (live_in[r] && maybe_written[r]) {
                    scan.status = SimtScan::Status::LoopCarriedDep;
                    scan.fault_pc = pc;
                    scan.dep_reg = static_cast<RegId>(r);
                    return scan;
                }
            }
            scan.status = SimtScan::Status::Ok;
            return scan;
        }
        if (di.op == Op::SIMT_S) {
            scan.status = SimtScan::Status::NestedStart;
            scan.fault_pc = pc;
            return scan;
        }
        if (!di.valid() || di.isIndirect() || di.op == Op::EBREAK ||
            di.op == Op::ECALL) {
            scan.status = SimtScan::Status::IllegalInst;
            scan.fault_pc = pc;
            return scan;
        }
        if ((di.isBranch() || di.op == Op::JAL) && di.imm < 0) {
            // Backward branch: cannot pipeline.
            scan.status = SimtScan::Status::BackwardBranch;
            scan.fault_pc = pc;
            return scan;
        }
    }
    return scan;
}

SimtTrips
simtTripCount(u32 rc0, u32 step, u32 end)
{
    // The counter walks an arithmetic progression, so the exit trip is
    // one division. Valid only while the i32 counter never wraps;
    // since the progression is monotone, checking the final value in
    // i64 covers every intermediate one.
    const i64 c0 = static_cast<i32>(rc0);
    const i64 s = static_cast<i32>(step);
    const i64 e = static_cast<i32>(end);
    const i64 cap = static_cast<i64>(kSimtTripCap);
    i64 t;
    if (s > 0)
        t = std::max<i64>(1, (e - c0 + s - 1) / s);
    else if (s < 0)
        t = std::max<i64>(1, (c0 - e - s - 1) / -s);
    else
        t = c0 < e ? cap + 1 : 1;  // runs once, or spins to the cap
    SimtTrips r{static_cast<u64>(std::min(t, cap)), t > cap};
    const i64 last = c0 + static_cast<i64>(r.trips) * s;
    if (last >= std::numeric_limits<i32>::min() &&
        last <= std::numeric_limits<i32>::max())
        return r;

    // Wraparound: walk the loop literally in u32, as simt_e does.
    r = {};
    for (u32 v = rc0;;) {
        ++r.trips;
        v += step;
        const bool more = static_cast<i32>(step) >= 0
                              ? static_cast<i32>(v) < static_cast<i32>(end)
                              : static_cast<i32>(v) > static_cast<i32>(end);
        if (!more)
            break;
        if (r.trips >= kSimtTripCap) {
            r.capped = true;
            break;
        }
    }
    return r;
}

} // namespace diag::analysis
