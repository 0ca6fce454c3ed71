#include "ooo/core.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/log.hpp"
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

sim::ThreadResult
OooCore::runThread(Addr entry, const sim::InitRegs &init_regs,
                   SparseMemory &mem, Cycle start_cycle, u64 max_insts)
{
    sim::ThreadResult res;
    u32 regs[kNumRegs] = {};
    Cycle reg_ready[kNumRegs] = {};
    for (auto &r : reg_ready)
        r = start_cycle;
    for (const auto &[reg, value] : init_regs)
        regs[reg] = value;

    sim::StoreTracker tracker(mem, cfg_.store_buffer_entries);
    GsharePredictor gshare(cfg_.gshare_entries, cfg_.gshare_history);
    Btb btb(cfg_.btb_entries);
    Ras ras(cfg_.ras_entries);

    // Frontend state.
    Cycle fetch_cycle = start_cycle;
    unsigned fetch_in_cycle = 0;
    Cycle redirect_gate = start_cycle;
    Addr cur_line = ~Addr{0};
    // Window state.
    std::vector<Cycle> commit_hist(cfg_.rob_entries, 0);
    std::vector<Cycle> issue_hist(cfg_.iq_entries, 0);
    std::vector<Cycle> memop_hist(cfg_.lsq_entries, 0);
    u64 memop_count = 0;
    // Commit pacing.
    Cycle commit_cycle = start_cycle;
    unsigned commit_in_cycle = 0;
    Cycle last_commit = start_cycle;

    const Cycle fe_latency = cfg_.decode_latency + cfg_.rename_latency +
                             cfg_.dispatch_latency;
    Addr pc = entry;

    auto reg_value = [&](RegId r) -> u32 {
        return (r == kNoReg || r == kRegZero) ? 0 : regs[r];
    };
    auto reg_time = [&](RegId r) -> Cycle {
        return (r == kNoReg || r == kRegZero) ? 0 : reg_ready[r];
    };

    for (u64 i = 0; i < max_insts; ++i) {
        // Cooperative host cancellation / wall-clock watchdog (same
        // contract as Ring::runThread): flag every instruction, clock
        // on the first and every 64th.
        if (cancel_ &&
            (cancel_->cancelled() ||
             ((i & 63) == 0 && cancel_->expired()))) {
            res.timed_out = true;
            res.stop_pc = pc;
            res.finish = last_commit;
            res.stop_reason = detail::vformat("host watchdog: %s",
                                              cancel_->reason());
            break;
        }
        if (pc & 3u) {
            // A misaligned PC (jalr masks only bit 0) cannot be
            // fetched; trap instead of decoding garbage.
            res.faulted = true;
            res.stop_pc = pc;
            res.finish = last_commit;
            res.stop_reason =
                detail::vformat("trap: misaligned pc 0x%x", pc);
            break;
        }
        if (cfg_.max_cycles != 0 && last_commit > cfg_.max_cycles) {
            res.timed_out = true;
            res.stop_pc = pc;
            res.finish = last_commit;
            res.stop_reason = detail::vformat(
                "watchdog: cycle ceiling exceeded (%llu > max_cycles "
                "%llu)",
                static_cast<unsigned long long>(last_commit),
                static_cast<unsigned long long>(cfg_.max_cycles));
            break;
        }
        const DecodedInst &di = decodeAt(pc, mem);
        if (!di.valid()) {
            res.faulted = true;
            res.stop_pc = pc;
            res.finish = last_commit;
            res.stop_reason = detail::vformat(
                "trap: invalid encoding at pc 0x%x", pc);
            break;
        }

        // ---- fetch ----
        Cycle f = std::max(fetch_cycle, redirect_gate);
        const Addr line = alignDown(pc, 64);
        if (line != cur_line) {
            const mem::MemResult ir = mh_.fetchLine(core_id_, line, f);
            if (ir.level != mem::ServedBy::L1)
                f = std::max(f, ir.done);  // I-miss stalls the frontend
            cur_line = line;
        }
        if (f > fetch_cycle) {
            fetch_cycle = f;
            fetch_in_cycle = 0;
        }
        if (fetch_in_cycle >= cfg_.width) {
            fetch_cycle += 1;
            fetch_in_cycle = 0;
        }
        const Cycle fetched = fetch_cycle;
        ++fetch_in_cycle;

        // ---- decode / rename / dispatch ----
        Cycle dispatch = fetched + fe_latency;
        // ROB entry must be free.
        if (i >= cfg_.rob_entries)
            dispatch = std::max(dispatch,
                                commit_hist[i % cfg_.rob_entries]);
        // IQ entry must be free.
        if (i >= cfg_.iq_entries)
            dispatch = std::max(dispatch,
                                issue_hist[i % cfg_.iq_entries] + 1);
        // LSQ entry must be free (memory ops only).
        if (di.isMem()) {
            if (memop_count >= cfg_.lsq_entries)
                dispatch = std::max(
                    dispatch,
                    memop_hist[memop_count % cfg_.lsq_entries]);
        }

        // ---- operand readiness ----
        u32 c_val = 0;
        Cycle ops_ready =
            std::max(reg_time(di.rs1), reg_time(di.rs2));
        if (di.op == Op::SIMT_E) {
            // Scalar semantics (the baseline has no simt hardware).
            const auto ef = simtEndFields(di);
            const DecodedInst &start_inst =
                decodeAt(pc - ef.lOffset, mem);
            panic_if(start_inst.op != Op::SIMT_S,
                     "simt_e at 0x%x without simt_s", pc);
            const RegId r_step = simtStartFields(start_inst).rStep;
            ops_ready = std::max(ops_ready, reg_time(r_step));
            c_val = reg_value(r_step);
        } else if (di.rs3 != kNoReg) {
            ops_ready = std::max(ops_ready, reg_time(di.rs3));
            c_val = reg_value(di.rs3);
        }
        if (di.rs1 != kNoReg)
            ++counters_[OooCounter::regfile_reads];
        if (di.rs2 != kNoReg)
            ++counters_[OooCounter::regfile_reads];

        // ---- issue (wakeup/select) ----
        FuPool &pool = poolFor(di.cls());
        const Cycle want = std::max(dispatch + 1, ops_ready);
        const ExecClass cls = di.cls();
        const bool unpipelined = cls == ExecClass::IntDiv ||
                                 cls == ExecClass::FpDiv ||
                                 cls == ExecClass::FpSqrt;
        const Cycle lat = execLatency(cls);
        const Cycle issue = pool.acquire(want, unpipelined ? lat : 1);

        // ---- execute ----
        Cycle complete;
        u32 value = 0;
        bool redirect = false;
        Addr target = 0;
        bool halt = false;

        if (di.isLoad()) {
            const Addr ea = effectiveAddr(di, reg_value(di.rs1));
            const Cycle addr_ready = issue + 1;
            const Cycle ld_issue =
                std::max(addr_ready, tracker.storeAddrGate());
            ++counters_[OooCounter::lsq_searches];
            const Cycle fwd = tracker.forwardProbe(ea,
                                                   di.info().memBytes);
            if (fwd != kNeverCycle) {
                complete = std::max(ld_issue, fwd) + 1;
                ++counters_[OooCounter::stl_forwards];
            } else {
                const mem::MemResult mr =
                    mh_.dataAccess(core_id_, ea, false, ld_issue);
                complete = mr.done;
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
            value = loadExtend(di, mem.read(ea, di.info().memBytes));
            memop_hist[memop_count++ % cfg_.lsq_entries] = complete;
            ++counters_[OooCounter::loads];
        } else if (di.isStore()) {
            const Addr ea = effectiveAddr(di, reg_value(di.rs1));
            complete = issue + 1;
            // Program-order functional update; the cache write happens
            // post-commit and only occupies the port. The address
            // resolves once rs1 is ready (split STA/STD), so younger
            // loads wait only on the address.
            const Cycle addr_ready =
                std::max(dispatch + 1, reg_time(di.rs1)) + 1;
            mem.write(ea, reg_value(di.rs2), di.info().memBytes);
            tracker.recordStore(ea, di.info().memBytes, addr_ready,
                                complete);
            mh_.dataAccess(core_id_, ea, true, complete);
            memop_hist[memop_count++ % cfg_.lsq_entries] = complete;
            ++counters_[OooCounter::stores];
        } else {
            const ExecOut eo = execute(di, pc, reg_value(di.rs1),
                                       reg_value(di.rs2), c_val);
            complete = issue + lat;
            value = eo.value;
            halt = eo.halt;
            redirect = eo.redirect;
            target = eo.target;
            switch (cls) {
              case ExecClass::IntMul: ++counters_[OooCounter::fu_mul]; break;
              case ExecClass::IntDiv: ++counters_[OooCounter::fu_div]; break;
              default:
                ++counters_[di.isFp() ? OooCounter::fu_fpu
                                      : OooCounter::fu_int];
                break;
            }
        }

        // ---- destination write ----
        if (di.writesReg()) {
            regs[di.rd] = value;
            reg_ready[di.rd] = complete + cfg_.wakeup_delay;
            ++counters_[OooCounter::regfile_writes];
        }

        // ---- control flow and prediction ----
        const Addr next_pc = redirect ? target : pc + 4;
        if (di.isBranch() || di.op == Op::SIMT_E) {
            ++counters_[OooCounter::bp_lookups];
            const bool taken = redirect;
            const bool pred = gshare.predict(pc);
            gshare.update(pc, taken);
            if (pred != taken) {
                ++counters_[OooCounter::mispredicts];
                redirect_gate = std::max(
                    redirect_gate, complete + cfg_.mispredict_penalty);
            } else if (taken) {
                fetch_cycle =
                    std::max(fetch_cycle,
                             fetched + cfg_.taken_branch_bubble);
                fetch_in_cycle = 0;
            }
            if (taken)
                cur_line = ~Addr{0};
        } else if (di.op == Op::JAL) {
            ++counters_[OooCounter::btb_lookups];
            Addr btb_target = 0;
            if (btb.lookup(pc, btb_target)) {
                fetch_cycle = std::max(
                    fetch_cycle, fetched + cfg_.taken_branch_bubble);
            } else {
                // Target becomes known at decode.
                fetch_cycle = std::max(
                    fetch_cycle, fetched + cfg_.btb_miss_penalty);
                btb.insert(pc, target);
            }
            fetch_in_cycle = 0;
            cur_line = ~Addr{0};
            if (di.rd == 1)  // call: push the return address
                ras.push(pc + 4);
        } else if (di.op == Op::JALR) {
            const bool is_ret = di.rd == kNoReg && di.rs1 == 1;
            bool predicted = false;
            if (is_ret) {
                predicted = ras.pop() == target;
                ++counters_[OooCounter::ras_lookups];
            } else {
                Addr btb_target = 0;
                predicted = btb.lookup(pc, btb_target) &&
                            btb_target == target;
                btb.insert(pc, target);
                ++counters_[OooCounter::btb_lookups];
            }
            if (predicted) {
                fetch_cycle = std::max(
                    fetch_cycle, fetched + cfg_.taken_branch_bubble);
                fetch_in_cycle = 0;
            } else {
                ++counters_[OooCounter::mispredicts];
                redirect_gate = std::max(
                    redirect_gate, complete + cfg_.mispredict_penalty);
            }
            cur_line = ~Addr{0};
            if (di.rd == 1)
                ras.push(pc + 4);
        }

        // ---- commit (in order, width per cycle) ----
        Cycle c = std::max(complete + 1, last_commit);
        if (c > commit_cycle) {
            commit_cycle = c;
            commit_in_cycle = 0;
        }
        if (commit_in_cycle >= cfg_.width) {
            commit_cycle += 1;
            commit_in_cycle = 0;
        }
        const Cycle commit = commit_cycle;
        ++commit_in_cycle;
        last_commit = commit;
        commit_hist[i % cfg_.rob_entries] = commit;
        issue_hist[i % cfg_.iq_entries] = issue;
        ++res.retired;

        if (halt) {
            res.halted = true;
            res.stop_pc = pc;
            res.finish = commit;
            break;
        }
        pc = next_pc;
        res.finish = commit;
    }

    // Every retired instruction passed each pipeline stage exactly
    // once, so the stage counters advance by the retired count.
    for (OooCounter c :
         {OooCounter::fetches, OooCounter::decodes, OooCounter::renames,
          OooCounter::dispatches, OooCounter::issues,
          OooCounter::iq_wakeups, OooCounter::commits})
        counters_[c] += res.retired;
    if (!res.halted && !res.faulted && !res.timed_out) {
        res.timed_out = true;
        res.stop_reason = detail::vformat(
            "instruction budget exhausted (%llu retired)",
            static_cast<unsigned long long>(res.retired));
    }
    for (unsigned r = 0; r < kNumRegs; ++r)
        res.regs[r] = regs[r];
    return res;
}

} // namespace diag::ooo
