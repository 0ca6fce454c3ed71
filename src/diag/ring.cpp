#include "diag/ring.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <deque>
#include <map>

#include "analysis/simt_scan.hpp"
#include "common/bits.hpp"
#include "common/log.hpp"
#include "fault/checkpoint.hpp"
#include "fault/controller.hpp"
#include "fault/watchdog.hpp"
#include "isa/decoder.hpp"
#include "isa/exec.hpp"
#include "obs/sim_profile.hpp"
#include "trace/addr_trace.hpp"

namespace diag::core
{

using namespace diag::isa;

Ring::Ring(const DiagConfig &cfg, unsigned index, mem::MemHierarchy &mh,
           mem::Bus &bus, StatGroup &stats)
    : cfg_(cfg), index_(index), mh_(mh), bus_(bus), stats_(stats),
      engine_(cfg, mh, 0, stats),
      line_bytes_(cfg.pes_per_cluster * 4)
{
    clusters_.resize(cfg.clustersPerRing());
    for (unsigned c = 0; c < clusters_.size(); ++c)
        clusters_[c].index = c;
    fatal_if(clusters_.size() < 2,
             "a ring needs at least two clusters to alternate (have %zu)",
             clusters_.size());
}

void
Ring::reset()
{
    for (Cluster &cl : clusters_)
        cl.reset();
    resident_.clear();
    pinned_lines_.clear();
    not_pipelinable_.clear();
    use_counter_ = 0;
}

void
Ring::setFaultController(fault::FaultController *fc)
{
    faults_ = fc;
    engine_.setFaultController(fc);
}

void
Ring::setTracer(trace::Tracer *t)
{
    trc_ = t;
    engine_.setTracer(t, index_);
}

void
Ring::setAddrTrace(trace::AddrTrace *t)
{
    atrc_ = t;
    engine_.setAddrTrace(t);
}

unsigned
Ring::enabledClusters() const
{
    unsigned n = 0;
    for (const Cluster &cl : clusters_)
        n += cl.disabled ? 0 : 1;
    return n;
}

void
Ring::disableCluster(Cluster &cl)
{
    auto it = resident_.find(cl.line_base);
    if (it != resident_.end() && it->second == cl.index)
        resident_.erase(it);
    cl.evict();
    cl.disabled = true;
    stats_.inc("clusters_disabled");
    if (faults_)
        faults_->noteClusterDisabled();
    warn("ring%u: cluster %u disabled after repeated faults; "
         "remapping onto %u surviving clusters",
         index_, cl.index, enabledClusters());
}

void
Ring::dumpState(const char *why) const
{
    warn("ring%u state dump (%s):", index_, why);
    for (const Cluster &cl : clusters_) {
        warn("  cl%u%s line=0x%x ready=%llu free=%llu last_use=%llu",
             cl.index, cl.disabled ? " [disabled]" : "",
             cl.line_base, static_cast<unsigned long long>(cl.ready_at),
             static_cast<unsigned long long>(cl.free_at),
             static_cast<unsigned long long>(cl.last_use));
    }
}

Cluster &
Ring::chooseVictim()
{
    Cluster *victim = nullptr;
    for (Cluster &cl : clusters_) {
        if (cl.disabled)
            continue;
        if (cl.loaded() && pinned_lines_.count(cl.line_base))
            continue;
        if (!victim || cl.last_use < victim->last_use)
            victim = &cl;
    }
    panic_if(!victim, "all clusters pinned; cannot evict");
    return *victim;
}

Cycle
Ring::loadLine(Cluster &cl, Addr line, Cycle when, SparseMemory &mem)
{
    if (cl.loaded() && resident_.count(cl.line_base) &&
        resident_[cl.line_base] == cl.index)
        resident_.erase(cl.line_base);

    // The cluster must finish draining before it can be re-loaded.
    const Cycle start = std::max(when, cl.free_at);
    if (cl.free_at > when)
        st_other_stall_cycles_.inc(
            static_cast<double>(cl.free_at - when));
    // I-cache line fetch, delivery over the shared 512-bit bus, and
    // one decode cycle (paper §5.1.1).
    const mem::MemResult res = mh_.fetchLine(0, line, start);
    const Cycle grant = bus_.request(res.done, cfg_.bus_iline_transfer);
    const Cycle ready =
        grant + cfg_.bus_iline_transfer + cfg_.decode_latency;

    if (cl.last_use == 0)
        st_clusters_used_.inc();  // first use: un-gates its lanes
    cl.line_base = line;
    cl.ready_at = ready;
    cl.last_use = ++use_counter_;
    cl.insts.clear();
    cl.insts.reserve(cfg_.pes_per_cluster);
    for (unsigned i = 0; i < cfg_.pes_per_cluster; ++i)
        cl.insts.push_back(decode(mem.read32(line + 4 * i)));
    // Skip-idle metadata (DESIGN.md §15), derived once per line load
    // instead of once per activation.
    cl.has_backward_branch = false;
    for (const DecodedInst &di : cl.insts) {
        if ((di.isBranch() || di.op == Op::JAL) && di.imm < 0) {
            cl.has_backward_branch = true;
            break;
        }
    }
    cl.batch_window.clear();
    st_iline_fetches_.inc();
    st_decodes_.inc(cfg_.pes_per_cluster);
    return ready;
}

Ring::Resident
Ring::ensureLoaded(Addr line, Cycle when, SparseMemory &mem)
{
    auto it = resident_.find(line);
    if (it != resident_.end()) {
        Cluster &cl = clusters_[it->second];
        cl.last_use = ++use_counter_;
        if (cfg_.reuse_enabled)
            return {&cl, cl.ready_at, true};
        // Ablation: without datapath reuse every activation re-fetches
        // and re-decodes its line, even when it is still resident.
        const Cycle ready = loadLine(cl, line, when, mem);
        resident_[line] = cl.index;
        return {&cl, ready, false};
    }
    Cluster &victim = chooseVictim();
    const Cycle ready = loadLine(victim, line, when, mem);
    resident_[line] = victim.index;
    return {&victim, ready, false};
}

void
Ring::prefetch(Addr line, Cycle when, SparseMemory &mem)
{
    if (resident_.count(line))
        return;
    ensureLoaded(line, when, mem);
    st_prefetches_.inc();
}

u8
Ring::qualifyBatchWindow(Cluster &cl, unsigned slot) const
{
    const unsigned n = static_cast<unsigned>(cl.insts.size());
    if (slot >= n) {
        if (obs_)
            ++obs_->disqualified[obs::kReasonOutOfLine];
        return 1;
    }
    if (cl.batch_window.size() != n)
        cl.batch_window.assign(n, 0);
    if (cl.batch_window[slot] != 0)
        return cl.batch_window[slot];
    u8 code = 1;
    // Self-profiling (DESIGN.md §16): the verdict is cached per line
    // load, so each reason tallies once per classification, not once
    // per execution of the line.
    unsigned reason = obs::kReasonNoTerminator;
    for (unsigned b = slot; b < n; ++b) {
        const DecodedInst &di = cl.insts[b];
        if (!di.valid()) {
            reason = obs::kReasonInvalidInst;
            break;
        }
        if (di.isBranch()) {
            // Window terminator: a conditional backward branch whose
            // target is the entry slot again (a self-loop).
            const Addr addr = cl.line_base + 4 * b;
            const Addr target =
                static_cast<Addr>(static_cast<i64>(addr) + di.imm);
            if (di.imm < 0 && target == cl.line_base + 4 * slot)
                code = static_cast<u8>(2 + (b - slot));
            else
                reason = obs::kReasonNotSelfLoop;
            break;
        }
        // Interior instructions must be pure lane-to-lane compute:
        // memory would touch cache/bus/LSU state the loop probe does
        // not snapshot; control, system, and simt end the activation.
        if (di.isMem() || di.isControl() || di.isSimt()) {
            reason = di.isMem()    ? obs::kReasonInteriorMem
                     : di.isSimt() ? obs::kReasonInteriorSimt
                                   : obs::kReasonInteriorControl;
            break;
        }
    }
    if (obs_) {
        if (code >= 2)
            ++obs_->lines_batchable;
        else
            ++obs_->disqualified[reason];
    }
    cl.batch_window[slot] = code;
    return code;
}

ThreadResult
Ring::runThread(Addr entry, const LaneFile &init_regs, SparseMemory &mem,
                Cycle start_cycle, u64 max_insts)
{
    ThreadResult res;
    LaneFile regs = init_regs;
    for (LaneState &l : regs) {
        l.ready = std::max(l.ready, start_cycle);
        l.seg = kInputLatch;
    }
    Addr pc = entry;
    Cycle pc_enter = start_cycle;
    Cycle min_start = start_cycle;
    ThreadMemCtx tmc(mem, cfg_.mem_lane_entries);
    u64 retired = 0;
    // Lookahead window: an activation may not begin before the one
    // speculation_depth activations earlier finished executing.
    std::deque<Cycle> inflight;

    if (faults_ && faults_->parityEnabled())
        refreshParity(regs);
    fault::Watchdog wd(cfg_.max_cycles);
    fault::ThreadCheckpoint ckpt;

    // Fill in the common tail of every structured early stop.
    auto stop = [&](Cycle when, Addr where, std::string reason) {
        res.finish = when;
        res.retired = retired;
        res.stop_pc = where;
        res.stop_reason = std::move(reason);
        res.final_regs = regs;
    };

    u64 activations = 0;

    // ---- steady-state loop batcher (DESIGN.md §15) ----
    // A resident self-loop reaches a steady state where each iteration
    // shifts the entire timing vector by one constant c: probe two
    // consecutive loop-top-to-loop-top intervals, and once their state
    // deltas agree exactly, replay only the *values* (functional
    // isa::execute per window instruction) to find the exit iteration,
    // then bulk-apply j iterations' worth of timing shift and counter
    // deltas at once. Eligible only when every per-iteration side
    // effect is visible to the probe: no fault controller (checkpoints
    // and injection force dense stepping), no tracers (per-activation
    // events must be emitted), datapath reuse on (otherwise every
    // iteration re-fetches over the bus), and not dense_loop mode.
    // verbose() keeps the per-activation inform() stream complete.
    const bool batch_ok = !cfg_.dense_loop && !faults_ && !trc_ &&
                          !atrc_ && cfg_.reuse_enabled && !verbose();
    struct LoopProbe
    {
        Addr pc = kNoLine;   //!< loop-top pc being probed
        unsigned cluster = 0;
        unsigned fails = 0;
        bool have_snap = false;
        bool have_delta = false;
        // previous loop-top snapshot
        LaneFile regs{};
        Cycle pc_enter = 0;
        Cycle min_start = 0;
        Cycle free_at = 0;
        u64 use_counter = 0;
        std::vector<Cycle> pe_busy;
        std::deque<Cycle> inflight;
        std::map<std::string, double> stats;
        // candidate per-iteration deltas (awaiting one confirmation)
        Cycle c = 0;
        std::array<Cycle, isa::kNumRegs> lane_d{};
        std::map<std::string, double> stat_d;
    };
    LoopProbe probe;
    // A window that never settles (e.g. an operand lane still crossing
    // a max) is re-probed a bounded number of times, then blacklisted
    // in the cluster's window cache to stop the snapshot overhead.
    constexpr unsigned kProbeFails = 8;

    auto snapshot_probe = [&](const Cluster &cl, unsigned slot,
                              unsigned last) {
        probe.regs = regs;
        probe.pc_enter = pc_enter;
        probe.min_start = min_start;
        probe.free_at = cl.free_at;
        probe.use_counter = use_counter_;
        probe.pe_busy.assign(cl.pe_busy.begin() + slot,
                             cl.pe_busy.begin() + last + 1);
        probe.inflight = inflight;
        probe.stats = stats_.all();
        probe.have_snap = true;
        if (obs_)
            ++obs_->probe_attempts;
    };

    // Returns true when it advanced the thread past j>=1 batched loop
    // iterations; the caller continues at the (post-jump) loop top so
    // the budget / watchdog / cancellation checks run there as usual.
    auto try_batch = [&]() -> bool {
        const Addr line = alignDown(pc, line_bytes_);
        const auto res_it = resident_.find(line);
        if (res_it == resident_.end()) {
            probe.pc = kNoLine;
            return false;
        }
        Cluster &cl = clusters_[res_it->second];
        const unsigned slot = static_cast<unsigned>((pc - line) / 4);
        const u8 code = qualifyBatchWindow(cl, slot);
        if (code < 2) {
            probe.pc = kNoLine;
            return false;
        }
        const unsigned last = slot + (code - 2);  // branch slot
        if (pc != probe.pc || res_it->second != probe.cluster ||
            cl.pe_busy.size() <= last) {
            probe.pc = pc;
            probe.cluster = res_it->second;
            probe.fails = 0;
            probe.have_delta = false;
            probe.have_snap = false;
            if (cl.pe_busy.size() > last)
                snapshot_probe(cl, slot, last);
            return false;
        }
        if (!probe.have_snap) {
            snapshot_probe(cl, slot, last);
            return false;
        }

        // ---- diff this loop top against the previous one ----
        const Cycle c = pc_enter - probe.pc_enter;
        // The speculation-lookahead deque grows by one activation per
        // iteration until it saturates at speculation_depth; while it
        // is still growing the intervals cannot match structurally, so
        // the mismatch is a ramp-up transient, not a verdict on the
        // loop — it must not count toward the blacklist.
        const bool ramping =
            inflight.size() != probe.inflight.size();
        bool ok = pc_enter > probe.pc_enter &&
                  min_start - probe.min_start == c &&
                  cl.free_at - probe.free_at == c &&
                  use_counter_ - probe.use_counter == 2 && !ramping;
        for (size_t i = 0; ok && i < inflight.size(); ++i)
            ok = inflight[i] - probe.inflight[i] == c;
        for (unsigned i = slot; ok && i <= last; ++i)
            ok = cl.pe_busy[i] - probe.pe_busy[i - slot] == c;
        // Static read / write sets of the window.
        bool in_w[isa::kNumRegs] = {};
        bool in_r[isa::kNumRegs] = {};
        for (unsigned i = slot; i <= last; ++i) {
            const DecodedInst &di = cl.insts[i];
            for (RegId r : {di.rs1, di.rs2, di.rs3})
                if (r != kNoReg && r != kRegZero)
                    in_r[r] = true;
            if (di.writesReg())
                in_w[di.rd] = true;
        }
        std::array<Cycle, isa::kNumRegs> lane_d{};
        for (unsigned r = 0; ok && r < isa::kNumRegs; ++r) {
            const LaneState &now = regs[r];
            const LaneState &then = probe.regs[r];
            if (now.seg != then.seg || now.ready < then.ready) {
                ok = false;
                break;
            }
            lane_d[r] = now.ready - then.ready;
            if (in_w[r]) {
                // Written lanes must ride the uniform shift.
                ok = lane_d[r] == c;
            } else {
                // Unwritten lanes evolve autonomously (reuse latch +
                // output sweep): values must be loop-invariant, and
                // operand lanes may not outgrow the shift — a faster-
                // growing term could come to dominate a max later and
                // break the extrapolation.
                ok = now.value == then.value &&
                     (!in_r[r] || lane_d[r] <= c);
            }
        }
        std::map<std::string, double> stat_d;
        if (ok) {
            for (const auto &kv : stats_.all()) {
                const auto it = probe.stats.find(kv.first);
                const double prev =
                    it == probe.stats.end() ? 0.0 : it->second;
                if (kv.second != prev)
                    stat_d[kv.first] = kv.second - prev;
            }
        }
        if (!ok) {
            if (obs_)
                ++obs_->probe_misses;
            if (!ramping && ++probe.fails >= kProbeFails) {
                cl.batch_window[slot] = 1;  // dynamic blacklist
                if (obs_)
                    ++obs_->probe_blacklisted;
            }
            probe.have_delta = false;
            snapshot_probe(cl, slot, last);
            return false;
        }
        if (!probe.have_delta || c != probe.c ||
            lane_d != probe.lane_d || stat_d != probe.stat_d) {
            probe.c = c;
            probe.lane_d = lane_d;
            probe.stat_d = std::move(stat_d);
            probe.have_delta = true;
            snapshot_probe(cl, slot, last);
            return false;
        }

        // ---- two consecutive intervals agree exactly: extrapolate ----
        // Replay values only, bounded by the instruction budget, the
        // first cycle-watchdog violation, and a chunk cap that keeps
        // cooperative-cancellation polls reachable.
        const u64 per_iter = last - slot + 1;
        u64 cap = u64{1} << 20;
        cap = std::min(cap,
                       (max_insts - retired + per_iter - 1) / per_iter);
        const Cycle top = std::max(pc_enter, min_start);
        if (cfg_.max_cycles != 0 && cfg_.max_cycles >= top)
            cap = std::min(cap, (cfg_.max_cycles - top) / c + 1);
        u32 vals[isa::kNumRegs];
        for (unsigned r = 0; r < isa::kNumRegs; ++r)
            vals[r] = regs[r].value;
        auto val_of = [&](RegId r) -> u32 {
            return (r == kNoReg || r == kRegZero) ? 0 : vals[r];
        };
        u64 j = 0;
        while (j < cap) {
            // The not-taken iteration belongs to the dense engine (it
            // keeps executing past the branch), so its interior writes
            // are undone before leaving the replay.
            RegId undo_rd[16];
            u32 undo_val[16];
            unsigned nu = 0;
            bool taken = true;
            for (unsigned i = slot; i <= last; ++i) {
                const DecodedInst &di = cl.insts[i];
                const ExecOut eo =
                    execute(di, line + 4 * i, val_of(di.rs1),
                            val_of(di.rs2), val_of(di.rs3));
                if (i == last) {
                    taken = eo.redirect;
                } else if (di.writesReg()) {
                    undo_rd[nu] = di.rd;
                    undo_val[nu] = vals[di.rd];
                    ++nu;
                    vals[di.rd] = eo.value;
                }
            }
            if (!taken) {
                while (nu--)
                    vals[undo_rd[nu]] = undo_val[nu];
                break;
            }
            ++j;
        }
        if (j == 0)
            return false;

        // ---- bulk-apply j iterations of the confirmed deltas ----
        for (unsigned r = 0; r < isa::kNumRegs; ++r) {
            regs[r].value = vals[r];
            regs[r].ready += j * probe.lane_d[r];
        }
        pc_enter += j * c;
        min_start += j * c;
        for (Cycle &d : inflight)
            d += j * c;
        for (unsigned i = slot; i <= last; ++i)
            cl.pe_busy[i] += j * c;
        cl.free_at += j * c;
        use_counter_ += 2 * j;
        cl.last_use = use_counter_;
        retired += j * per_iter;
        activations += j;
        if (obs_) {
            ++obs_->batch_jumps;
            obs_->batched_iterations += j;
            obs_->batched_insts += j * per_iter;
        }
        for (const auto &kv : probe.stat_d)
            stats_.inc(kv.first, static_cast<double>(j) * kv.second);
        probe.have_snap = false;  // re-probe from scratch after a jump
        probe.have_delta = false;
        return true;
    };

    while (retired < max_insts) {
        // Cooperative host cancellation / wall-clock watchdog: the
        // flag is one atomic load per activation; the deadline (a
        // clock read) is consulted on the first activation and every
        // 64th after, so an already-expired token stops before any
        // work and a pathological seed stops within one check window.
        if (cancel_ &&
            (cancel_->cancelled() ||
             ((activations++ & 63) == 0 && cancel_->expired()))) {
            res.timed_out = true;
            stop(std::max(pc_enter, min_start), pc,
                 detail::vformat("host watchdog: %s",
                                 cancel_->reason()));
            return res;
        }
        // Hardware trap: a misaligned PC (reachable through jalr off a
        // corrupted lane — the ISA masks only bit 0) cannot address an
        // I-line slot.
        if (pc & 3u) {
            res.faulted = true;
            stop(std::max(pc_enter, min_start), pc,
                 detail::vformat("trap: misaligned pc 0x%x", pc));
            return res;
        }
        // Forward-progress watchdog: activation boundaries that stop
        // retiring instructions mean a control-unit livelock.
        if (wd.onProgress(retired) ||
            wd.onCycle(std::max(pc_enter, min_start))) {
            dumpState(wd.reason().c_str());
            res.timed_out = true;
            stop(std::max(pc_enter, min_start), pc, wd.reason());
            return res;
        }
        if (faults_) {
            // Activation boundary = checkpoint: snapshot architectural
            // state *before* injection so recovery restores a clean
            // image, then let due fault events strike.
            ckpt.valid = true;
            ckpt.pc = pc;
            ckpt.pc_enter = pc_enter;
            ckpt.min_start = min_start;
            ckpt.retired = retired;
            ckpt.regs = regs;
            ckpt.inflight = inflight;
            ckpt.mem_lanes = tmc;
            faults_->undoLog().clear();
            faults_->oracleMark();
            faults_->onBoundary(regs, tmc, mem, mh_, retired);
            if (trc_)
                trc_->checkpoint(static_cast<u8>(index_), pc,
                                 std::max(pc_enter, min_start), retired);
            if (faults_->parityEnabled()) {
                const int bad = faults_->paritySweep(regs);
                if (bad >= 0) {
                    stats_.inc("fault_parity_detections");
                    faults_->noteParityDetection();
                    if (!faults_->recoveryBudgetLeft()) {
                        res.aborted = true;
                        stop(std::max(pc_enter, min_start), pc,
                             detail::vformat(
                                 "parity error on lane %d: recovery "
                                 "budget exhausted", bad));
                        return res;
                    }
                    // Lane scrub: restore the checkpointed lane file
                    // and pay the recovery penalty before re-entry.
                    faults_->noteRecovery();
                    stats_.inc("fault_recoveries");
                    regs = ckpt.regs;
                    const Cycle resume =
                        std::max(pc_enter, min_start) +
                        faults_->detect().recovery_penalty;
                    pc_enter = resume;
                    min_start = resume;
                    if (trc_)
                        trc_->rollback(static_cast<u8>(index_), pc,
                                       resume,
                                       faults_->tally().recoveries);
                }
            }
        }
        if (batch_ok && try_batch())
            continue;
        const Addr line = alignDown(pc, line_bytes_);
        const Cycle demand = std::max(pc_enter, min_start);
        const Resident got = ensureLoaded(line, demand, mem);
        Cluster &cl = *got.cluster;
        if (got.reused)
            st_reuse_activations_.inc();
        if (got.ready > demand)
            st_fetch_wait_cycles_.inc(
                static_cast<double>(got.ready - demand));

        ActivationInput in;
        in.cluster = &cl;
        in.entry_pc = pc;
        in.pc_enter = std::max(pc_enter, got.ready);
        // Per-PE occupancy is enforced inside the activation engine;
        // min_start carries decode readiness, squash re-steer floors,
        // and the bounded speculation window.
        in.min_start = std::max(min_start, got.ready);
        if (inflight.size() >= cfg_.speculation_depth)
            in.min_start = std::max(in.min_start, inflight.front());
        in.mode = ActMode::Serial;
        in.trap_on_simt = cfg_.simt_enabled;

        // Overlap: prefetch the fall-through line while executing —
        // but not while a loop is resident in this line (a backward
        // branch will re-enter it; prefetching would evict the loop's
        // own lines in small rings, defeating reuse).
        bool has_backward_branch = cl.has_backward_branch;
        if (cfg_.dense_loop) {
            // Dense escape hatch: rescan the (unchanged) line the way
            // the pre-skip-idle control unit did. Same answer as the
            // cached flag, by construction.
            has_backward_branch = false;
            for (const DecodedInst &di : cl.insts) {
                if ((di.isBranch() || di.op == Op::JAL) && di.imm < 0) {
                    has_backward_branch = true;
                    break;
                }
            }
        }
        if (!has_backward_branch)
            prefetch(line + line_bytes_, in.min_start, mem);

        const ActivationOutput act = engine_.run(in, regs, tmc);
        if (obs_)
            ++obs_->dense_activations;
        if (trc_)
            trc_->activation(static_cast<u8>(index_),
                             static_cast<u16>(cl.index), pc, in.min_start,
                             act.end_cycle, got.reused, act.retired);
        inform("ring%u act cl%u pc=0x%x..0x%x start=%llu done=%llu "
               "retired=%llu exit=%d%s",
               index_, cl.index, pc, act.exit_pc,
               static_cast<unsigned long long>(in.min_start),
               static_cast<unsigned long long>(act.compute_done),
               static_cast<unsigned long long>(act.retired),
               static_cast<int>(act.exit), got.reused ? " [reuse]" : "");
        // The cluster accepts the next (speculative) activation once
        // its PEs finished executing; the retire sweep (pc_exit) can
        // trail behind.
        cl.free_at = act.compute_done;
        cl.last_use = ++use_counter_;
        if (faults_ && faults_->divergencePending()) {
            // Lockstep oracle flagged a retirement mismatch inside this
            // activation: discard its architectural effects (precise at
            // the activation boundary), roll back, and re-execute. A
            // cluster blamed repeatedly is taken offline.
            stats_.inc("fault_lockstep_detections");
            faults_->noteLockstepDetection();
            if (!faults_->recoveryBudgetLeft()) {
                res.aborted = true;
                stop(act.end_cycle, pc,
                     "lockstep: " + faults_->divergenceReason() +
                         " (recovery budget exhausted)");
                return res;
            }
            faults_->noteRecovery();
            stats_.inc("fault_recoveries");
            faults_->undoLog().rollback(mem);
            regs = ckpt.regs;
            pc = ckpt.pc;
            retired = ckpt.retired;
            tmc = *ckpt.mem_lanes;
            inflight = ckpt.inflight;
            const Cycle resume =
                act.end_cycle + faults_->detect().recovery_penalty;
            pc_enter = resume;
            min_start = resume;
            if (trc_)
                trc_->rollback(static_cast<u8>(index_), pc, resume,
                               faults_->tally().recoveries);
            faults_->oracleRewind();
            faults_->clearDivergence();
            if (faults_->strike(cl.index) && enabledClusters() > 2)
                disableCluster(cl);
            continue;
        }
        retired += act.retired;
        inflight.push_back(act.compute_done);
        if (inflight.size() > cfg_.speculation_depth)
            inflight.pop_front();

        switch (act.exit) {
          case ActExit::Halt:
            res.finish = act.end_cycle;
            res.retired = retired;
            res.halted = !act.faulted;
            res.faulted = act.faulted;
            res.stop_pc = act.exit_pc;
            if (act.faulted)
                res.stop_reason = detail::vformat(
                    "trap: invalid encoding at pc 0x%x", act.exit_pc);
            res.final_regs = regs;
            return res;
          case ActExit::SimtTrap: {
            const Addr simt_s_pc = act.exit_pc;
            if (!not_pipelinable_.count(simt_s_pc)) {
                const SimtRegion region = scanSimtRegion(simt_s_pc, mem);
                if (region.ok) {
                    if (!runSimtPipeline(region, simt_s_pc, regs,
                                         act.exit_resolve, pc, pc_enter,
                                         min_start, tmc, retired)) {
                        dumpState("simt pipeline cycle ceiling");
                        res.timed_out = true;
                        stop(std::max(pc_enter, min_start), pc,
                             detail::vformat(
                                 "watchdog: simt pipeline exceeded "
                                 "max_cycles %llu",
                                 static_cast<unsigned long long>(
                                     cfg_.max_cycles)));
                        return res;
                    }
                    continue;
                }
                not_pipelinable_.insert(simt_s_pc);
                stats_.inc("simt_fallbacks");
            }
            // Fall back to scalar execution: re-enter at the simt_s
            // with trapping suppressed via a one-shot serial pass.
            {
                ActivationInput again = in;
                again.entry_pc = simt_s_pc;
                again.pc_enter = std::max(act.exit_resolve, got.ready);
                again.min_start =
                    std::max(act.exit_resolve, got.ready);
                again.trap_on_simt = false;
                const ActivationOutput act2 = engine_.run(again, regs, tmc);
                if (obs_)
                    ++obs_->dense_activations;
                if (trc_)
                    trc_->activation(static_cast<u8>(index_),
                                     static_cast<u16>(cl.index),
                                     simt_s_pc, again.min_start,
                                     act2.end_cycle, false,
                                     act2.retired);
                cl.free_at = act2.end_cycle;
                if (faults_ && faults_->divergencePending()) {
                    // Same recovery as the main path: the whole loop
                    // iteration (including the simt trap) re-executes
                    // from the boundary checkpoint.
                    stats_.inc("fault_lockstep_detections");
                    faults_->noteLockstepDetection();
                    if (!faults_->recoveryBudgetLeft()) {
                        res.aborted = true;
                        stop(act2.end_cycle, pc,
                             "lockstep: " +
                                 faults_->divergenceReason() +
                                 " (recovery budget exhausted)");
                        return res;
                    }
                    faults_->noteRecovery();
                    stats_.inc("fault_recoveries");
                    faults_->undoLog().rollback(mem);
                    regs = ckpt.regs;
                    pc = ckpt.pc;
                    retired = ckpt.retired;
                    tmc = *ckpt.mem_lanes;
                    inflight = ckpt.inflight;
                    const Cycle resume =
                        act2.end_cycle +
                        faults_->detect().recovery_penalty;
                    pc_enter = resume;
                    min_start = resume;
                    if (trc_)
                        trc_->rollback(static_cast<u8>(index_), pc,
                                       resume,
                                       faults_->tally().recoveries);
                    faults_->oracleRewind();
                    faults_->clearDivergence();
                    if (faults_->strike(cl.index) &&
                        enabledClusters() > 2)
                        disableCluster(cl);
                    continue;
                }
                retired += act2.retired;
                if (act2.exit == ActExit::Halt) {
                    res.finish = act2.end_cycle;
                    res.retired = retired;
                    res.halted = !act2.faulted;
                    res.faulted = act2.faulted;
                    res.stop_pc = act2.exit_pc;
                    if (act2.faulted)
                        res.stop_reason = detail::vformat(
                            "trap: invalid encoding at pc 0x%x",
                            act2.exit_pc);
                    res.final_regs = regs;
                    return res;
                }
                pc = act2.exit_pc;
                if (act2.exit == ActExit::FellThrough) {
                    pc_enter = act2.exit_resolve + cfg_.inter_cluster_latch;
                    min_start = 0;
                    for (LaneState &l : regs)
                        l.ready += cfg_.inter_cluster_latch;
                } else {  // Redirect
                    const Cycle grant = bus_.request(
                        act2.exit_resolve, cfg_.bus_regfile_transfer);
                    const Cycle xfer =
                        grant + cfg_.bus_regfile_transfer;
                    for (LaneState &l : regs)
                        l.ready = std::max(l.ready, grant) +
                                  cfg_.bus_regfile_transfer;
                    pc_enter = xfer;
                    min_start = act2.exit_resolve + cfg_.squash_resteer;
                    st_ctrl_stall_cycles_.inc(
                        static_cast<double>(xfer - act2.exit_resolve));
                }
            }
            continue;
          }
          case ActExit::FellThrough:
            pc = act.exit_pc;
            pc_enter = act.exit_resolve + cfg_.inter_cluster_latch;
            min_start = 0;
            for (LaneState &l : regs)
                l.ready += cfg_.inter_cluster_latch;
            break;
          case ActExit::Redirect: {
            if (trc_)
                trc_->pcRedirect(static_cast<u8>(index_),
                                 static_cast<u16>(cl.index), pc,
                                 act.exit_resolve, act.exit_pc);
            pc = act.exit_pc;
            const Addr target_line = alignDown(pc, line_bytes_);
            const auto res_it = resident_.find(target_line);
            const bool reuse = cfg_.reuse_enabled &&
                               act.redirect_backward &&
                               res_it != resident_.end();
            if (reuse) {
                // Predicted-taken backward branch into a resident
                // datapath: no fetch, no decode, no re-steer bubble —
                // the control unit's scheduling table has the loop's
                // head/tail clusters registered (§5.1.3), so the lane
                // wrap path is pre-configured and the handover costs
                // one latch like any cluster-to-cluster transfer.
                const Cycle latch = cfg_.inter_cluster_latch;
                for (LaneState &l : regs)
                    l.ready += latch;
                min_start = act.branch_done + latch;
                pc_enter = act.exit_resolve + latch;
                st_reuse_redirects_.inc();
                if (trc_)
                    trc_->reuseHit(
                        static_cast<u8>(index_),
                        static_cast<u16>(
                            clusters_[res_it->second].index),
                        pc, pc_enter);
            } else if (pc == line + line_bytes_) {
                // Taken forward branch to the immediately next line:
                // lanes hand over through the inter-cluster latch; the
                // wrong-path squash costs the re-steer bubble.
                pc_enter = act.exit_resolve + cfg_.inter_cluster_latch;
                for (LaneState &l : regs)
                    l.ready += cfg_.inter_cluster_latch;
                min_start = act.exit_resolve + cfg_.squash_resteer;
                st_ctrl_stall_cycles_.inc(
                    static_cast<double>(cfg_.squash_resteer));
            } else {
                // Mispredicted control transfer to a far or
                // non-resident target: register file over the bus plus
                // the squash re-steer.
                const Cycle grant = bus_.request(
                    act.exit_resolve, cfg_.bus_regfile_transfer);
                const Cycle xfer = grant + cfg_.bus_regfile_transfer;
                for (LaneState &l : regs)
                    l.ready = std::max(l.ready, grant) +
                              cfg_.bus_regfile_transfer;
                pc_enter = xfer;
                min_start = act.exit_resolve + cfg_.squash_resteer;
                st_ctrl_stall_cycles_.inc(
                    static_cast<double>(xfer - act.exit_resolve));
            }
            break;
          }
          case ActExit::ThreadEnd:
            panic("ThreadEnd exit outside a simt pipeline stage");
        }
    }
    // Instruction budget exhausted: report a structured timeout.
    res.timed_out = true;
    stop(std::max(pc_enter, min_start), pc,
         detail::vformat("instruction budget exhausted (%llu retired)",
                         static_cast<unsigned long long>(retired)));
    return res;
}

Ring::SimtRegion
Ring::scanSimtRegion(Addr simt_s_pc, SparseMemory &mem) const
{
    // The legality rules live in the shared static analyzer so that
    // diag-lint reports exactly what this control unit will accept.
    SimtRegion region;
    if (!cfg_.simt_enabled)
        return region;
    const analysis::SimtScan scan = analysis::scanSimtRegion(
        simt_s_pc, mem, line_bytes_, cfg_.clustersPerRing());
    if (!scan.ok())
        return region;
    region.ok = true;
    region.simt_e_pc = scan.simt_e_pc;
    region.fields = scan.fields;
    return region;
}

bool
Ring::runSimtPipeline(const SimtRegion &region, Addr simt_s_pc,
                      LaneFile &regs, Cycle resolve, Addr &pc,
                      Cycle &pc_enter, Cycle &min_start,
                      ThreadMemCtx &tmc, u64 &retired)
{
    // Retirement order across pipelined threads is interleaved, so the
    // instruction-by-instruction golden oracle cannot follow it.
    fatal_if(faults_ && faults_->lockstepEnabled(),
             "golden-lockstep checking is incompatible with simt "
             "thread pipelining; disable one of the two");
    const auto &f = region.fields;
    auto reg_value = [&](RegId r) -> u32 {
        return r == kRegZero ? 0 : regs[r].value;
    };
    const u32 rc0 = reg_value(f.rc);
    const u32 step = reg_value(f.rStep);
    const u32 end = reg_value(f.rEnd);

    // Trip count with do-while semantics, matching simt_e's scalar
    // behaviour exactly (the step's sign selects the condition).
    constexpr u64 kTripCap = u64{1} << 20;
    u64 trips = 0;
    bool capped = false;
    bool closed = false;
    if (!cfg_.dense_loop) {
        // Closed form (skip-idle, DESIGN.md §15): the counter walks an
        // arithmetic progression, so the exit trip is one division.
        // Valid only while the i32 counter never wraps; since the
        // progression is monotone, checking the final value in i64
        // covers every intermediate one. On wrap, fall back to the
        // iterative walk below, which has wrap semantics built in.
        const i64 c0 = static_cast<i32>(rc0);
        const i64 sstep = static_cast<i32>(step);
        const i64 e = static_cast<i32>(end);
        i64 t;
        if (sstep > 0)
            t = std::max<i64>(1, (e - c0 + sstep - 1) / sstep);
        else if (sstep < 0)
            t = std::max<i64>(1, (c0 - e + (-sstep) - 1) / (-sstep));
        else
            t = c0 < e ? static_cast<i64>(kTripCap) + 1 : 1;
        capped = t > static_cast<i64>(kTripCap);
        trips = capped ? kTripCap : static_cast<u64>(t);
        const i64 v_last = c0 + static_cast<i64>(trips) * sstep;
        closed = v_last >= std::numeric_limits<i32>::min() &&
                 v_last <= std::numeric_limits<i32>::max();
    }
    if (!closed) {
        trips = 0;
        capped = false;
        for (u32 v = rc0;;) {
            ++trips;
            v += step;
            const bool more =
                static_cast<i32>(step) >= 0
                    ? static_cast<i32>(v) < static_cast<i32>(end)
                    : static_cast<i32>(v) > static_cast<i32>(end);
            if (!more)
                break;
            if (trips >= kTripCap) {
                capped = true;
                break;
            }
        }
    }
    if (capped)
        warn("simt region at 0x%x exceeds 2^20 threads; capping",
             simt_s_pc);
    if (obs_) {
        if (closed)
            ++obs_->simt_closed_form;
        else
            ++obs_->simt_iterative;
    }
    stats_.inc("simt_regions");
    stats_.inc("simt_threads", static_cast<double>(trips));
    // Per-region counters (keyed by the simt_s pc) let the bound
    // validator compare each region's measured duration against its
    // static model (tools/diag_bound.cpp --validate).
    stats_.inc(detail::vformat("simt_region_%08x_entries", simt_s_pc));
    stats_.inc(detail::vformat("simt_region_%08x_threads", simt_s_pc),
               static_cast<double>(trips));
    if (trc_)
        trc_->regionEnter(static_cast<u8>(index_), simt_s_pc, resolve,
                          trips);
    if (atrc_)
        atrc_->regionEnter(simt_s_pc, rc0, step, trips);

    // Region lines; pin them so stage clusters are never evicted.
    const Addr first_line = alignDown(simt_s_pc + 4, line_bytes_);
    const Addr last_line = alignDown(region.simt_e_pc, line_bytes_);
    std::vector<Addr> lines;
    for (Addr line = first_line; line <= last_line; line += line_bytes_)
        lines.push_back(line);
    for (Addr line : lines)
        pinned_lines_.insert(line);

    // Spatial replication (paper §4.4.1): when the pipeline has fewer
    // stages than the ring has clusters, replicate it to maximise PE
    // utilisation. Threads round-robin across replicas.
    const unsigned max_replicas = static_cast<unsigned>(
        clusters_.size() / lines.size());
    const unsigned replicas = static_cast<unsigned>(std::max<u64>(
        1, std::min<u64>({max_replicas, trips})));
    stats_.inc("simt_replicas", static_cast<double>(replicas));

    // Allocate and load stage clusters: replica r, stage s uses a
    // dedicated cluster. Replica 0 reuses already-resident lines.
    std::vector<std::vector<Cluster *>> stage(replicas);
    Cycle ready_all = resolve;
    for (unsigned r = 0; r < replicas; ++r) {
        for (const Addr line : lines) {
            Cluster *cl = nullptr;
            Cycle ready = 0;
            if (r == 0) {
                const Resident got = ensureLoaded(line, resolve,
                                                  tmc.mem());
                cl = got.cluster;
                ready = got.ready;
            } else {
                cl = &chooseVictim();
                ready = loadLine(*cl, line, resolve, tmc.mem());
            }
            stage[r].push_back(cl);
            ready_all = std::max(ready_all, ready);
        }
    }

    const Cycle interval = std::max<Cycle>(1, f.interval);
    Cycle launch = std::max(resolve, ready_all);
    Cycle last_exit_resolve = resolve;
    LaneFile last_regs = regs;

    for (u64 k = 0; k < trips; ++k) {
        if (cfg_.max_cycles != 0 && launch > cfg_.max_cycles) {
            if (atrc_)
                atrc_->regionExit(); // close the partial entry record
            return false; // structured timeout, not an endless spin
        }
        const auto &my_stages = stage[k % replicas];
        LaneFile thr = regs;
        thr[f.rc] = {rc0 + static_cast<u32>(k) * step, launch,
                     kInputLatch};
        if (faults_ && faults_->parityEnabled())
            thr[f.rc].parity = laneParity(thr[f.rc].value);
        Addr tpc = simt_s_pc + 4;
        Cycle tpc_enter = launch;
        Cycle tmin = launch;
        for (;;) {
            const Addr line = alignDown(tpc, line_bytes_);
            const size_t idx =
                static_cast<size_t>((line - first_line) / line_bytes_);
            Cluster &cl = *my_stages[idx];
            ActivationInput in;
            in.cluster = &cl;
            in.entry_pc = tpc;
            in.pc_enter = std::max(tpc_enter, cl.ready_at);
            // Threads stream through stage PEs back-to-back; per-PE
            // occupancy (pipeline registers) is enforced inside the
            // engine rather than whole-cluster exclusivity.
            in.min_start = std::max(tmin, cl.ready_at);
            in.mode = ActMode::SimtStage;
            in.simt_step = step;
            const ActivationOutput act = engine_.run(in, thr, tmc);
            if (obs_)
                ++obs_->simt_activations;
            if (trc_) {
                trc_->simtStage(static_cast<u8>(index_),
                                static_cast<u16>(cl.index), tpc,
                                in.min_start, act.end_cycle, k);
                trc_->retired(act.end_cycle, act.retired);
            }
            inform("simt thread %llu stage cl%u: launch=%llu "
                   "min_start=%llu end=%llu exit=%d",
                   static_cast<unsigned long long>(k), cl.index,
                   static_cast<unsigned long long>(launch),
                   static_cast<unsigned long long>(in.min_start),
                   static_cast<unsigned long long>(act.end_cycle),
                   static_cast<int>(act.exit));
            cl.free_at = act.end_cycle;
            cl.last_use = ++use_counter_;
            retired += act.retired;
            if (act.exit == ActExit::ThreadEnd) {
                if (act.exit_resolve > last_exit_resolve) {
                    last_exit_resolve = act.exit_resolve;
                }
                if (k == trips - 1)
                    last_regs = thr;
                break;
            }
            panic_if(act.exit == ActExit::Halt ||
                         act.exit == ActExit::SimtTrap,
                     "unexpected exit %d inside simt stage",
                     static_cast<int>(act.exit));
            // FellThrough or forward Redirect within the region.
            panic_if(act.exit_pc <= tpc || act.exit_pc >
                         region.simt_e_pc,
                     "simt stage left the region: 0x%x", act.exit_pc);
            tpc = act.exit_pc;
            tpc_enter = act.exit_resolve + cfg_.inter_cluster_latch;
            tmin = 0;
            for (LaneState &l : thr)
                l.ready += cfg_.inter_cluster_latch;
        }
        launch += interval;
    }

    // Release replica clusters (replica 0 stays resident for reuse).
    for (unsigned r = 1; r < replicas; ++r) {
        for (Cluster *cl : stage[r])
            cl->evict();
    }
    for (Addr line : lines)
        pinned_lines_.erase(line);

    // Only the last thread's lanes propagate past simt_e (paper §5.4).
    regs = last_regs;
    pc = region.simt_e_pc + 4;
    stats_.inc(detail::vformat("simt_region_%08x_cycles", simt_s_pc),
               static_cast<double>(last_exit_resolve +
                                   cfg_.inter_cluster_latch - resolve));
    if (trc_)
        trc_->regionExit(static_cast<u8>(index_), simt_s_pc, resolve,
                         last_exit_resolve + cfg_.inter_cluster_latch);
    if (atrc_)
        atrc_->regionExit();
    pc_enter = last_exit_resolve + cfg_.inter_cluster_latch;
    min_start = 0;
    for (LaneState &l : regs)
        l.ready += cfg_.inter_cluster_latch;
    return true;
}

} // namespace diag::core
