#include "diag/activation.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "fault/controller.hpp"
#include "isa/decoder.hpp"
#include "isa/exec.hpp"
#include "isa/latency.hpp"
#include "trace/addr_trace.hpp"

namespace diag::core
{

using namespace diag::isa;

ActivationEngine::ActivationEngine(const DiagConfig &cfg,
                                   mem::MemHierarchy &mh,
                                   unsigned mem_port,
                                   DiagCounters &counters)
    : cfg_(cfg), mh_(mh), mem_port_(mem_port), counters_(counters),
      line_bytes_(cfg.pes_per_cluster * 4)
{}

Cycle
ActivationEngine::serveLoad(Cluster &cl, sim::StoreTracker &tmc, Addr ea,
                            u8 size, Cycle issue, unsigned pe)
{
    ++counters_[DiagCounter::loads];
    // Localized stride prefetch: each PE slot holds one (reused)
    // memory instruction, so its address stream is highly regular.
    if (cfg_.stride_prefetch_enabled) {
        const Addr predict = cl.strideTrain(pe, ea);
        if (predict != 0 &&
            alignDown(predict, 64) != alignDown(ea, 64)) {
            // Fetch the predicted line into L1D and the line buffer in
            // the background (bank occupancy is paid, the PE is not).
            mh_.dataAccess(mem_port_, predict, false, issue);
            cl.lineBufAccess(alignDown(predict, 64));
            ++counters_[DiagCounter::stride_prefetches];
        }
    }
    // Queue admission: at most lsq_entries outstanding requests.
    auto &q = cl.outstanding;
    std::erase_if(q, [&](Cycle done) { return done <= issue; });
    if (q.size() >= cfg_.lsq_entries) {
        const Cycle earliest = *std::min_element(q.begin(), q.end());
        counters_[DiagCounter::mem_queue_stall_cycles] += earliest - issue;
        if (trc_)
            trc_->lsuQueue(ring_, static_cast<u16>(cl.index),
                           cl.line_base + 4 * pe, issue,
                           earliest - issue, q.size());
        issue = earliest;
        std::erase_if(q, [&](Cycle done) { return done <= issue; });
    }
    // LSU issue port (order-tolerant: pipelined iterations may present
    // requests out of time order).
    const Cycle grant =
        cl.lsu_port.reserve(issue, cfg_.lsu_issue_occupancy);

    // 1. Memory lanes: store-to-load forwarding (paper §5.2).
    if (cfg_.mem_lanes_enabled) {
        const Cycle fwd = tmc.forwardProbe(ea, size);
        if (fwd != kNeverCycle) {
            ++counters_[DiagCounter::memlane_fwd];
            if (trc_)
                trc_->memLaneHit(
                    ring_, cl.line_base + 4 * pe, std::max(grant, fwd),
                    static_cast<u16>(tmc.entries().size()));
            return std::max(grant, fwd) + cfg_.mem_lane_latency;
        }
    }
    // 2. Cluster line buffer: recently accessed lines (paper §5.2).
    const Addr line = alignDown(ea, 64);
    if (cl.lineBufAccess(line)) {
        ++counters_[DiagCounter::linebuf_hits];
        return grant + cfg_.line_buffer_latency;
    }
    // 3. Banked L1D (a second-level cache per §5.2), then L2, DRAM.
    const mem::MemResult res = mh_.dataAccess(mem_port_, ea, false,
                                              grant);
    switch (res.level) {
      case mem::ServedBy::L1: ++counters_[DiagCounter::l1_loads]; break;
      case mem::ServedBy::L2: ++counters_[DiagCounter::l2_loads]; break;
      case mem::ServedBy::Dram: ++counters_[DiagCounter::dram_loads]; break;
    }
    // Memory stall attribution: everything beyond the cluster-local
    // ideal (memory-lane / line-buffer speed) counts as memory-stall
    // time, the way the paper attributes PE stalls to memory (§7.3.2).
    const Cycle ideal = grant + cfg_.line_buffer_latency;
    if (res.done > ideal)
        counters_[DiagCounter::mem_stall_cycles] += res.done - ideal;
    q.push_back(res.done);
    return res.done;
}

void
ActivationEngine::commitStore(Cluster &cl, Addr ea, Cycle commit)
{
    ++counters_[DiagCounter::stores];
    // Committed stores drain from the memory lanes in the background
    // (the lanes "enable access reordering", §5.2): the write-back
    // occupies L1D bank bandwidth but not the cluster's load-issue
    // port, so younger loads — which forward from the lanes anyway —
    // are not delayed behind retirement-ordered store drains.
    mh_.dataAccess(mem_port_, ea, true, commit);
    cl.lineBufAccess(alignDown(ea, 64));
}

ActivationOutput
ActivationEngine::run(const ActivationInput &in, LaneFile &regs,
                      sim::StoreTracker &tmc)
{
    Cluster &cl = *in.cluster;
    panic_if(!cl.loaded(), "activation on unloaded cluster %u", cl.index);
    const Addr base = cl.line_base;
    const unsigned n = static_cast<unsigned>(cl.insts.size());
    const unsigned seg_size = cfg_.segment_size;
    const int last_seg = static_cast<int>((n - 1) / seg_size);

    panic_if(in.entry_pc < base || in.entry_pc >= base + line_bytes_ ||
                 (in.entry_pc & 3),
             "entry pc 0x%x outside cluster line 0x%x", in.entry_pc,
             base);

    ActivationOutput out;
    Cycle pc_cursor = in.pc_enter;
    int pc_seg = 0;
    Addr expect = in.entry_pc;
    Cycle floor = in.min_start;
    Cycle max_done = in.min_start;
    bool exited = false;

    // Per-PE occupancy from the previous firing: a PE cannot begin the
    // next iteration's instance before its unit is free.
    if (cl.pe_busy.size() < n)
        cl.pe_busy.resize(n, 0);

    auto lane_value = [&](RegId r) -> u32 {
        if (r == kNoReg || r == kRegZero)
            return 0;
        return regs[r].value;
    };
    auto avail = [&](RegId r, int seg) -> Cycle {
        if (r == kNoReg || r == kRegZero)
            return 0;
        return regs[r].ready + laneDelay(regs[r].seg, seg);
    };
    auto finish = [&](ActExit why, Addr next, Cycle resolve) {
        out.exit = why;
        out.exit_pc = next;
        out.exit_resolve = resolve;
        exited = true;
    };

    ++counters_[DiagCounter::activations];

    for (unsigned i = (in.entry_pc - base) / 4; i < n && !exited; ++i) {
        const Addr addr = base + 4 * i;
        if (addr != expect) {
            // PE disabled: instruction-address/PC mismatch. `expect`
            // only ever moves forward within the line, so the cursor
            // can jump straight to the re-enable slot instead of
            // scanning each disabled PE (timing-neutral: disabled PEs
            // contribute nothing).
            i = static_cast<unsigned>((expect - base) / 4) - 1;
            continue;
        }
        const DecodedInst &di = cl.insts[i];
        const int seg = static_cast<int>(i / seg_size);

        if (!di.valid()) {
            // Fault precisely at this instruction.
            out.faulted = true;
            const Cycle here =
                std::max(floor, pc_cursor + laneDelay(pc_seg, seg));
            pc_cursor = here;
            pc_seg = seg;
            finish(ActExit::Halt, addr, here);
            break;
        }
        if (di.op == Op::SIMT_S && in.mode == ActMode::Serial &&
            in.trap_on_simt) {
            // Hand control to the ring's thread-pipeline logic without
            // executing the marker.
            const Cycle here =
                std::max(floor, pc_cursor + laneDelay(pc_seg, seg));
            finish(ActExit::SimtTrap, addr, here);
            break;
        }
        panic_if(!cfg_.fp_supported && di.isFp(),
                 "FP instruction %s on an integer-only configuration",
                 opName(di.op));

        // ---- operand availability over the register lanes ----
        Cycle ops_ready = std::max(avail(di.rs1, seg),
                                   avail(di.rs2, seg));
        u32 c_val = 0;
        if (di.op == Op::SIMT_E) {
            if (in.mode == ActMode::Serial) {
                // Scalar semantics: the step register named by the
                // matching simt_s is an extra operand.
                const auto ef = simtEndFields(di);
                const DecodedInst start_inst =
                    decode(tmc.mem().read32(addr - ef.lOffset));
                panic_if(start_inst.op != Op::SIMT_S,
                         "simt_e at 0x%x without matching simt_s", addr);
                const RegId r_step = simtStartFields(start_inst).rStep;
                ops_ready = std::max(ops_ready, avail(r_step, seg));
                c_val = lane_value(r_step);
            } else {
                c_val = in.simt_step;
            }
        } else if (di.rs3 != kNoReg) {
            ops_ready = std::max(ops_ready, avail(di.rs3, seg));
            c_val = lane_value(di.rs3);
        }
        const Cycle start =
            std::max({ops_ready, floor, cl.pe_busy[i]});

        // ---- execute ----
        Cycle done;
        u32 value = 0;
        bool redirect = false;
        Addr target = 0;
        bool halt = false;
        bool is_store = false;
        Addr store_ea = 0;
        u8 store_size = 0;
        u32 store_val = 0;
        Cycle store_addr_ready = 0;

        if (di.isLoad()) {
            const Addr ea = effectiveAddr(di, lane_value(di.rs1));
            if (atrc_)
                atrc_->access(addr, ea);
            const Cycle addr_ready = start + 1;  // address generation
            const Cycle issue =
                std::max(addr_ready, tmc.storeAddrGate());
            done = serveLoad(cl, tmc, ea, di.info().memBytes, issue, i);
            value = loadExtend(di, tmc.mem().read(ea,
                                                  di.info().memBytes));
            if (fc_)
                fc_->onPeResult(cl.index, i, value);
        } else if (di.isStore()) {
            is_store = true;
            store_ea = effectiveAddr(di, lane_value(di.rs1));
            store_size = di.info().memBytes;
            store_val = lane_value(di.rs2);
            if (fc_)
                fc_->onPeResult(cl.index, i, store_val);
            done = start + 1;  // address + data latched in the PE
            // The address resolves as soon as rs1 is available, even
            // if the data operand arrives much later; younger loads
            // are gated by the address only.
            store_addr_ready =
                std::max(avail(di.rs1, seg), floor) + 1;
        } else {
            const ExecOut eo = execute(di, addr, lane_value(di.rs1),
                                       lane_value(di.rs2), c_val);
            done = start + execLatency(di);
            value = eo.value;
            if (fc_)
                fc_->onPeResult(cl.index, i, value);
            halt = eo.halt;
            if (eo.redirect) {
                redirect = true;
                target = eo.target;
            }
            if (di.isFp())
                counters_[DiagCounter::fpu_active_cycles] += execLatency(di);
        }
        ++counters_[DiagCounter::pe_exec];
        counters_[DiagCounter::pe_busy_cycles] += done - start;
        // Clock-gated activity: execute-stage occupancy only (memory
        // wait time is spent in the LSU, not the PE's compute logic).
        counters_[DiagCounter::pe_exec_cycles] +=
            di.isMem() ? 1 : execLatency(di);

        // ---- destination lane write ----
        if (di.writesReg()) {
            regs[di.rd] = {value, done, seg};
            if (fc_ && fc_->parityEnabled())
                regs[di.rd].parity = laneParity(value);
            if (trc_)
                trc_->laneWrite(ring_, di.rd, addr, done, value);
            ++counters_[DiagCounter::lane_writes];
            counters_[DiagCounter::lane_hops] += last_seg - seg + 1;
        }

        // ---- PC-lane retirement (in program order) ----
        const Cycle pc_arrive = pc_cursor + laneDelay(pc_seg, seg);
        const Cycle pc_leave = std::max(pc_arrive, done);
        pc_cursor = pc_leave;
        pc_seg = seg;
        if (is_store) {
            // Stores commit when the PC lane passes (paper §4.3).
            if (atrc_)
                atrc_->access(addr, store_ea);
            if (fc_)
                fc_->onStoreCommit(
                    store_ea, store_size,
                    tmc.mem().read(store_ea, store_size));
            tmc.mem().write(store_ea, store_val, store_size);
            if (tmc.recordStore(store_ea, store_size,
                                store_addr_ready, done) &&
                trc_)
                trc_->memLaneEvict(
                    ring_, addr, done,
                    static_cast<u16>(tmc.entries().size()));
            commitStore(cl, store_ea, pc_leave);
        }
        ++out.retired;
        if (fc_) {
            fault::RetireRecord rr;
            rr.pc = addr;
            rr.wrote_reg = di.writesReg();
            rr.rd = di.rd;
            rr.rd_value = value;
            rr.is_store = is_store;
            rr.store_addr = store_ea;
            rr.store_value = store_val;
            fc_->onRetire(rr);
        }
        expect += 4;
        max_done = std::max(max_done, done);
        if (in.mode == ActMode::SimtStage) {
            // Thread pipelining inserts pipeline registers (paper
            // §4.4.1), letting a PE accept the next thread as soon as
            // its (pipelined) unit can take a new operation; divide
            // and square-root units are not pipelined.
            const ExecClass cls = di.cls();
            const bool unpipelined = cls == ExecClass::IntDiv ||
                                     cls == ExecClass::FpDiv ||
                                     cls == ExecClass::FpSqrt;
            cl.pe_busy[i] =
                unpipelined ? done : start + 1;
        } else {
            // Serial mode has no pipeline registers per PE: the PE's
            // operand/result latches hold one instance until done.
            cl.pe_busy[i] = done;
        }

        if (halt) {
            finish(ActExit::Halt, addr, pc_leave);
            break;
        }
        if (di.op == Op::SIMT_E && in.mode == ActMode::SimtStage) {
            finish(ActExit::ThreadEnd, addr + 4, pc_leave);
            break;
        }
        if (di.isBranch() && !redirect &&
            di.imm < 0) {
            // Loop exit: a backward branch is predicted taken under
            // datapath reuse, so falling through is a misprediction —
            // downstream PEs were held off and must be re-steered.
            floor = std::max(floor,
                             pc_leave + cfg_.squash_resteer + 2);
            ++counters_[DiagCounter::loop_exit_mispredicts];
            counters_[DiagCounter::ctrl_stall_cycles] +=
                cfg_.squash_resteer + 3;
        }
        if (redirect) {
            ++out.taken_branches;
            ++counters_[DiagCounter::taken_branches];
            if (atrc_ && target <= addr)
                atrc_->loopBack(addr);
            out.branch_done = done;
            const Cycle resolve = pc_leave;
            if (target > addr && alignDown(target, line_bytes_) == base) {
                // Forward skip within this cluster: downstream PEs are
                // disabled until the PC matches again; the squash
                // re-steer delays everything after the branch.
                expect = target;
                floor = std::max(floor, resolve + cfg_.squash_resteer);
                counters_[DiagCounter::ctrl_stall_cycles] +=
                    cfg_.squash_resteer + 1;
            } else {
                out.redirect_backward = target <= addr;
                finish(ActExit::Redirect, target, resolve);
                break;
            }
        }
    }

    if (!exited) {
        // Fell through: the PC crosses the remaining segments and the
        // output latch; the next cluster continues at `expect`.
        out.exit = ActExit::FellThrough;
        out.exit_pc = expect;
        pc_cursor += laneDelay(pc_seg, last_seg);
        out.exit_resolve = pc_cursor;
    }
    if (out.exit != ActExit::Redirect)
        out.branch_done = out.exit_resolve;
    out.pc_exit = pc_cursor;
    out.end_cycle = std::max(max_done, pc_cursor);
    out.compute_done = max_done;

    // Apply the cluster output-latch transfer to the lane file in
    // place (batched lane propagation: one sweep, no copy).
    for (auto &l : regs) {
        l.ready += laneDelay(l.seg, last_seg);
        l.seg = kInputLatch;
    }
    return out;
}

} // namespace diag::core
