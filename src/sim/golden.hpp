/**
 * @file
 * Golden functional RV32IMF simulator. This is the reference model: the
 * DiAG and out-of-order timing models are differentially tested against
 * it, and workload self-checks run on it first.
 */
#ifndef DIAG_SIM_GOLDEN_HPP
#define DIAG_SIM_GOLDEN_HPP

#include <functional>
#include <unordered_map>

#include "asm/program.hpp"
#include "common/sparse_mem.hpp"
#include "isa/decoder.hpp"
#include "isa/exec.hpp"

namespace diag::sim
{

/** What one retired instruction did (for traces and diff-testing). */
struct StepInfo
{
    Addr pc = 0;               //!< address of the retired instruction
    isa::DecodedInst inst;     //!< decoded instruction
    Addr next_pc = 0;          //!< PC after this instruction
    bool wrote_reg = false;    //!< destination register written
    isa::RegId rd = isa::kNoReg;
    u32 rd_value = 0;
    bool is_mem = false;       //!< load or store
    Addr mem_addr = 0;
    u32 mem_value = 0;         //!< loaded or stored value
    bool halted = false;       //!< EBREAK/ECALL reached
    bool faulted = false;      //!< undecodable instruction reached
};

/** Outcome of a run() call. */
struct RunResult
{
    u64 inst_count = 0;  //!< retired instructions
    bool halted = false; //!< reached EBREAK/ECALL
    bool faulted = false;//!< hit an invalid encoding
    Addr stop_pc = 0;    //!< PC of the halting/faulting instruction
};

/**
 * Architectural-state interpreter. Unified register file (x0..x31 then
 * f0..f31), byte-addressable sparse memory, no timing.
 */
class GoldenSim
{
  public:
    /** Load @p prog (code+data into memory, PC at the entry point). */
    explicit GoldenSim(const Program &prog);

    /** Execute one instruction. */
    StepInfo step();

    /** Run until halt/fault or @p max_insts retires. */
    RunResult run(u64 max_insts = 100'000'000);

    /** Read a unified-space register (x0 reads as zero). */
    u32
    reg(isa::RegId r) const
    {
        return r == isa::kRegZero ? 0 : regs_[r];
    }

    /** Write a unified-space register (x0 writes are dropped). */
    void
    setReg(isa::RegId r, u32 value)
    {
        if (r != isa::kRegZero)
            regs_[r] = value;
    }

    Addr pc() const { return pc_; }
    bool halted() const { return halted_; }

    SparseMemory &memory() { return mem_; }
    const SparseMemory &memory() const { return mem_; }

    /** Total instructions retired so far. */
    u64 instCount() const { return inst_count_; }

    /** Optional per-instruction observer (tracing, diff-testing). */
    void setTraceHook(std::function<void(const StepInfo &)> hook)
    {
        trace_ = std::move(hook);
    }

    /** Decoded instruction at @p addr (cached). */
    const isa::DecodedInst &decodeAt(Addr addr);

  private:
    SparseMemory mem_;
    u32 regs_[isa::kNumRegs] = {};
    Addr pc_ = 0;
    bool halted_ = false;
    u64 inst_count_ = 0;
    std::function<void(const StepInfo &)> trace_;
    std::unordered_map<Addr, isa::DecodedInst> icache_;
};

} // namespace diag::sim

#endif // DIAG_SIM_GOLDEN_HPP
