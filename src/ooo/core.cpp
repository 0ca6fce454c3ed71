#include "ooo/core.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "fault/watchdog.hpp"
#include "isa/decoder.hpp"
#include "isa/exec.hpp"
#include "isa/latency.hpp"

namespace diag::ooo
{

using namespace diag::isa;

OooCore::OooCore(const OooConfig &cfg, unsigned core_id,
                 mem::MemHierarchy &mh, OooCounters &counters)
    : cfg_(cfg), core_id_(core_id), mh_(mh), counters_(counters),
      alu_(cfg.alu_units), mul_(cfg.mul_units), div_(cfg.div_units),
      fpu_(cfg.fpu_units), fpdiv_(cfg.fpdiv_units),
      memport_(cfg.mem_ports)
{}

const DecodedInst &
OooCore::decodeAt(Addr pc, SparseMemory &mem)
{
    auto it = icache_.find(pc);
    if (it != icache_.end())
        return it->second;
    return icache_.emplace(pc, decode(mem.read32(pc))).first->second;
}

OooCore::FuPool &
OooCore::poolFor(ExecClass cls)
{
    switch (cls) {
      case ExecClass::IntMul: return mul_;
      case ExecClass::IntDiv: return div_;
      case ExecClass::FpDiv:
      case ExecClass::FpSqrt: return fpdiv_;
      case ExecClass::FpAdd:
      case ExecClass::FpMul:
      case ExecClass::FpFma:
      case ExecClass::FpMisc:
      case ExecClass::FpCmp:
      case ExecClass::FpCvt: return fpu_;
      case ExecClass::Load:
      case ExecClass::Store: return memport_;
      default: return alu_;
    }
}

namespace
{

/** One in-order stage's slots: up to width instructions a cycle. */
struct Slots
{
    explicit Slots(Cycle start) : cycle(start) {}

    Cycle cycle;        //!< cycle of the latest slot
    unsigned used = 0;  //!< slots taken in that cycle

    /** Take the first slot no earlier than @p ready. */
    Cycle
    take(Cycle ready, unsigned width)
    {
        if (ready > cycle || used >= width) {
            cycle = std::max(ready, cycle + 1);
            used = 0;
        }
        ++used;
        return cycle;
    }

    /** Refetch: no slot before @p until, and a fresh cycle's width. */
    void
    stall(Cycle until)
    {
        cycle = std::max(cycle, until);
        used = 0;
    }
};

} // namespace

struct OooCore::ThreadState
{
    ThreadState(const OooConfig &cfg, Addr entry,
                const sim::InitRegs &init_regs, SparseMemory &m,
                Cycle start)
        : pc(entry), mem(m), tracker(m, cfg.store_buffer_entries),
          gshare(cfg.gshare_entries, cfg.gshare_history),
          btb(cfg.btb_entries), ras(cfg.ras_entries),
          fetch_slots(start), commit_slots(start), redirect_gate(start),
          rob(cfg.rob_entries, 0), iq(cfg.iq_entries, 0),
          lsq(cfg.lsq_entries, 0), wd(cfg.max_cycles)
    {
        std::fill(std::begin(reg_ready), std::end(reg_ready), start);
        for (const auto &[reg, v] : init_regs)
            regs[reg] = v;
    }

    /** x0 and an absent operand read as 0, ready at cycle 0. */
    static bool zero(RegId r) { return r == kNoReg || r == kRegZero; }
    u32 value(RegId r) const { return zero(r) ? 0 : regs[r]; }
    Cycle ready(RegId r) const { return zero(r) ? 0 : reg_ready[r]; }

    Addr pc;
    SparseMemory &mem;
    u32 regs[kNumRegs] = {};
    Cycle reg_ready[kNumRegs];  //!< when each value reaches a consumer
    sim::StoreTracker tracker;
    GsharePredictor gshare;
    Btb btb;
    Ras ras;
    Slots fetch_slots, commit_slots;
    Cycle redirect_gate;       //!< no fetch before a mispredict refills
    Addr cur_line = ~Addr{0};  //!< I-line the frontend holds
    /** Per ROB / IQ / LSQ entry: when its last occupant committed,
     *  issued or completed. */
    std::vector<Cycle> rob, iq, lsq;
    u64 memops = 0;  //!< loads and stores dispatched (LSQ slot index)
    fault::Watchdog wd;
    sim::ThreadResult res;
};

struct OooCore::DynInst
{
    explicit DynInst(const DecodedInst &inst) : di(inst) {}

    const DecodedInst &di;
    Cycle fetched = 0, dispatched = 0, issued = 0, complete = 0;
    u32 c_val = 0;  //!< third operand: rs3, or simt_e's step register
    u32 value = 0;  //!< destination value
    bool redirect = false;
    Addr target = 0;  //!< control-transfer target when redirect
    bool halt = false;
};

sim::ThreadResult
OooCore::runThread(Addr entry, const sim::InitRegs &init_regs,
                   SparseMemory &mem, Cycle start_cycle, u64 max_insts)
{
    ThreadState t(cfg_, entry, init_regs, mem, start_cycle);
    while (t.res.retired < max_insts && boundary(t)) {
        DynInst d(decodeAt(t.pc, mem));
        if (!fetch(t, d))
            break;
        dispatch(t, d);
        issue(t, d);
        execute(t, d);
        control(t, d);
        if (!commit(t, d))
            break;
    }
    // Every retired instruction passed each pipeline stage exactly
    // once, so the stage counters advance by the retired count.
    for (OooCounter c :
         {OooCounter::fetches, OooCounter::decodes, OooCounter::renames,
          OooCounter::dispatches, OooCounter::issues,
          OooCounter::iq_wakeups, OooCounter::commits})
        counters_[c] += t.res.retired;
    t.res.finish = t.commit_slots.cycle;
    t.res.stop_pc = t.pc;
    std::copy(std::begin(t.regs), std::end(t.regs), t.res.regs);
    return std::move(t.res);
}

bool
OooCore::boundary(ThreadState &t)
{
    if (sim::boundaryStop(cancel_, t.res.retired, t.pc, t.res))
        return false;
    if (t.wd.onCycle(t.commit_slots.cycle)) {
        t.res.timed_out = true;
        t.res.stop_reason = t.wd.reason();
        return false;
    }
    return true;
}

bool
OooCore::fetch(ThreadState &t, DynInst &d)
{
    if (!d.di.valid()) {
        t.res.faulted = true;
        t.res.stop_reason =
            detail::vformat("trap: invalid encoding at pc 0x%x", t.pc);
        return false;
    }
    Cycle f = std::max(t.fetch_slots.cycle, t.redirect_gate);
    const Addr line = alignDown(t.pc, 64);
    if (line != t.cur_line) {
        const mem::MemResult ir = mh_.fetchLine(core_id_, line, f);
        if (ir.level != mem::ServedBy::L1)
            f = std::max(f, ir.done);  // I-miss stalls the frontend
        t.cur_line = line;
    }
    d.fetched = t.fetch_slots.take(f, cfg_.width);
    return true;
}

void
OooCore::dispatch(ThreadState &t, DynInst &d)
{
    const u64 i = t.res.retired;  // the instruction's ROB/IQ slot
    d.dispatched = d.fetched + cfg_.decode_latency + cfg_.rename_latency +
                   cfg_.dispatch_latency;
    if (i >= cfg_.rob_entries)
        d.dispatched = std::max(d.dispatched, t.rob[i % cfg_.rob_entries]);
    if (i >= cfg_.iq_entries)
        d.dispatched =
            std::max(d.dispatched, t.iq[i % cfg_.iq_entries] + 1);
    if (d.di.isMem() && t.memops >= cfg_.lsq_entries)
        d.dispatched =
            std::max(d.dispatched, t.lsq[t.memops % cfg_.lsq_entries]);
}

void
OooCore::issue(ThreadState &t, DynInst &d)
{
    const DecodedInst &di = d.di;
    Cycle ops_ready = std::max(t.ready(di.rs1), t.ready(di.rs2));
    if (di.op == Op::SIMT_E) {
        // Scalar semantics (the baseline has no simt hardware).
        const auto ef = simtEndFields(di);
        const DecodedInst &start_inst = decodeAt(t.pc - ef.lOffset, t.mem);
        panic_if(start_inst.op != Op::SIMT_S,
                 "simt_e at 0x%x without simt_s", t.pc);
        const RegId r_step = simtStartFields(start_inst).rStep;
        ops_ready = std::max(ops_ready, t.ready(r_step));
        d.c_val = t.value(r_step);
    } else if (di.rs3 != kNoReg) {
        ops_ready = std::max(ops_ready, t.ready(di.rs3));
        d.c_val = t.value(di.rs3);
    }
    if (di.rs1 != kNoReg)
        ++counters_[OooCounter::regfile_reads];
    if (di.rs2 != kNoReg)
        ++counters_[OooCounter::regfile_reads];

    const ExecClass cls = di.cls();
    const bool unpipelined = cls == ExecClass::IntDiv ||
                             cls == ExecClass::FpDiv ||
                             cls == ExecClass::FpSqrt;
    d.issued = poolFor(cls).acquire(std::max(d.dispatched + 1, ops_ready),
                                    unpipelined ? execLatency(cls) : 1);
}

void
OooCore::execute(ThreadState &t, DynInst &d)
{
    const DecodedInst &di = d.di;
    if (di.isLoad()) {
        const Addr ea = effectiveAddr(di, t.value(di.rs1));
        const Cycle ld_issue =
            std::max(d.issued + 1, t.tracker.storeAddrGate());
        ++counters_[OooCounter::lsq_searches];
        const Cycle fwd = t.tracker.forwardProbe(ea, di.info().memBytes);
        if (fwd != kNeverCycle) {
            d.complete = std::max(ld_issue, fwd) + 1;
            ++counters_[OooCounter::stl_forwards];
        } else {
            const mem::MemResult mr =
                mh_.dataAccess(core_id_, ea, false, ld_issue);
            d.complete = mr.done;
            switch (mr.level) {
              case mem::ServedBy::L1:
                ++counters_[OooCounter::l1_loads];
                break;
              case mem::ServedBy::L2:
                ++counters_[OooCounter::l2_loads];
                break;
              case mem::ServedBy::Dram:
                ++counters_[OooCounter::dram_loads];
                break;
            }
        }
        d.value = loadExtend(di, t.mem.read(ea, di.info().memBytes));
        t.lsq[t.memops++ % cfg_.lsq_entries] = d.complete;
        ++counters_[OooCounter::loads];
    } else if (di.isStore()) {
        const Addr ea = effectiveAddr(di, t.value(di.rs1));
        d.complete = d.issued + 1;
        // Program-order functional update; the cache write happens
        // post-commit and only occupies the port. The address
        // resolves once rs1 is ready (split STA/STD), so younger
        // loads wait only on the address.
        const Cycle addr_ready =
            std::max(d.dispatched + 1, t.ready(di.rs1)) + 1;
        t.mem.write(ea, t.value(di.rs2), di.info().memBytes);
        t.tracker.recordStore(ea, di.info().memBytes, addr_ready,
                              d.complete);
        mh_.dataAccess(core_id_, ea, true, d.complete);
        t.lsq[t.memops++ % cfg_.lsq_entries] = d.complete;
        ++counters_[OooCounter::stores];
    } else {
        const ExecOut eo = isa::execute(di, t.pc, t.value(di.rs1),
                                        t.value(di.rs2), d.c_val);
        const ExecClass cls = di.cls();
        d.complete = d.issued + execLatency(cls);
        d.value = eo.value;
        d.halt = eo.halt;
        d.redirect = eo.redirect;
        d.target = eo.target;
        switch (cls) {
          case ExecClass::IntMul: ++counters_[OooCounter::fu_mul]; break;
          case ExecClass::IntDiv: ++counters_[OooCounter::fu_div]; break;
          default:
            ++counters_[di.isFp() ? OooCounter::fu_fpu
                                  : OooCounter::fu_int];
            break;
        }
    }
    if (di.writesReg()) {
        t.regs[di.rd] = d.value;
        t.reg_ready[di.rd] = d.complete + cfg_.wakeup_delay;
        ++counters_[OooCounter::regfile_writes];
    }
}

void
OooCore::control(ThreadState &t, const DynInst &d)
{
    const DecodedInst &di = d.di;
    enum class Outcome : u8 { None, Bubble, BtbMiss, Mispredict };
    Outcome out = Outcome::None;
    if (di.isBranch() || di.op == Op::SIMT_E) {
        ++counters_[OooCounter::bp_lookups];
        const bool pred = t.gshare.predict(t.pc);
        t.gshare.update(t.pc, d.redirect);
        out = pred != d.redirect ? Outcome::Mispredict
              : d.redirect       ? Outcome::Bubble
                                 : Outcome::None;
    } else if (di.op == Op::JAL) {
        // On a BTB miss the target is known only at decode.
        ++counters_[OooCounter::btb_lookups];
        Addr btb_target = 0;
        out = t.btb.lookup(t.pc, btb_target) ? Outcome::Bubble
                                             : Outcome::BtbMiss;
        if (out == Outcome::BtbMiss)
            t.btb.insert(t.pc, d.target);
    } else if (di.op == Op::JALR) {
        bool predicted = false;
        if (di.rd == kNoReg && di.rs1 == 1) {  // return
            predicted = t.ras.pop() == d.target;
            ++counters_[OooCounter::ras_lookups];
        } else {
            Addr btb_target = 0;
            predicted = t.btb.lookup(t.pc, btb_target) &&
                        btb_target == d.target;
            t.btb.insert(t.pc, d.target);
            ++counters_[OooCounter::btb_lookups];
        }
        out = predicted ? Outcome::Bubble : Outcome::Mispredict;
    }
    if ((di.op == Op::JAL || di.op == Op::JALR) && di.rd == 1)
        t.ras.push(t.pc + 4);  // call: push the return address

    switch (out) {
      case Outcome::None:
        break;
      case Outcome::Bubble:
        t.fetch_slots.stall(d.fetched + cfg_.taken_branch_bubble);
        break;
      case Outcome::BtbMiss:
        t.fetch_slots.stall(d.fetched + cfg_.btb_miss_penalty);
        break;
      case Outcome::Mispredict:
        ++counters_[OooCounter::mispredicts];
        t.redirect_gate = std::max(t.redirect_gate,
                                   d.complete + cfg_.mispredict_penalty);
        break;
    }
    if (d.redirect)
        t.cur_line = ~Addr{0};  // refetch from the target's line
}

bool
OooCore::commit(ThreadState &t, const DynInst &d)
{
    const u64 i = t.res.retired++;
    t.rob[i % cfg_.rob_entries] =
        t.commit_slots.take(d.complete + 1, cfg_.width);
    t.iq[i % cfg_.iq_entries] = d.issued;
    if (d.halt) {
        t.res.halted = true;
        return false;
    }
    t.pc = d.redirect ? d.target : t.pc + 4;
    return true;
}

} // namespace diag::ooo
