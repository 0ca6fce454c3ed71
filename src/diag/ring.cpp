#include "diag/ring.hpp"

#include <algorithm>
#include <deque>

#include "analysis/simt_scan.hpp"
#include "common/bits.hpp"
#include "common/log.hpp"
#include "fault/checkpoint.hpp"
#include "fault/controller.hpp"
#include "fault/watchdog.hpp"
#include "isa/decoder.hpp"
#include "trace/addr_trace.hpp"

namespace diag::core
{

using namespace diag::isa;

Ring::Ring(const DiagConfig &cfg, unsigned index, mem::MemHierarchy &mh,
           mem::Bus &bus, DiagCounters &counters)
    : cfg_(cfg), index_(index), mh_(mh), bus_(bus), counters_(counters),
      engine_(cfg, mh, 0, counters),
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
    ++counters_[DiagCounter::clusters_disabled];
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
        counters_[DiagCounter::other_stall_cycles] += cl.free_at - when;
    // I-cache line fetch, delivery over the shared 512-bit bus, and
    // one decode cycle (paper §5.1.1).
    const mem::MemResult res = mh_.fetchLine(0, line, start);
    const Cycle grant = bus_.request(res.done, cfg_.bus_iline_transfer);
    const Cycle ready =
        grant + cfg_.bus_iline_transfer + cfg_.decode_latency;

    if (cl.last_use == 0)  // first use: un-gates its lanes
        ++counters_[DiagCounter::clusters_used];
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
    ++counters_[DiagCounter::iline_fetches];
    counters_[DiagCounter::decodes] += cfg_.pes_per_cluster;
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
    ++counters_[DiagCounter::prefetches];
}

/** One software thread's state from activation to activation. */
struct Ring::ThreadState
{
    ThreadState(Addr entry, const LaneFile &init_regs, SparseMemory &m,
                Cycle start, const DiagConfig &cfg)
        : regs(init_regs), pc(entry), pc_enter(start), min_start(start),
          mem(m), tmc(m, cfg.mem_lane_entries), wd(cfg.max_cycles)
    {
        for (LaneState &l : regs) {
            l.ready = std::max(l.ready, start);
            l.seg = kInputLatch;
        }
    }

    /** Earliest cycle the next activation can start. */
    Cycle now() const { return std::max(pc_enter, min_start); }

    /** Fill in the common tail of every structured stop. */
    void
    stop(Cycle when, Addr where, std::string reason)
    {
        res.finish = when;
        res.retired = retired;
        res.stop_pc = where;
        res.stop_reason = std::move(reason);
        for (unsigned r = 0; r < kNumRegs; ++r)
            res.regs[r] = regs[r].value;
    }

    LaneFile regs;
    Addr pc;
    Cycle pc_enter;   //!< PC-lane arrival at the next cluster
    Cycle min_start;  //!< floor on the next activation's start
    SparseMemory &mem;
    sim::StoreTracker tmc;  //!< the memory lanes (paper §5.2)
    u64 retired = 0;
    // Lookahead window: an activation may not begin before the one
    // speculation_depth activations earlier finished executing.
    std::deque<Cycle> inflight;
    fault::Watchdog wd;
    fault::ThreadCheckpoint ckpt;
    u64 activations = 0;  //!< boundaries seen (cancellation polling)
    sim::ThreadResult res;
};

sim::ThreadResult
Ring::runThread(Addr entry, const sim::InitRegs &init_regs,
                SparseMemory &mem, Cycle start_cycle, u64 max_insts)
{
    LaneFile lanes{};
    for (const auto &[reg, value] : init_regs)
        lanes[reg].value = value;
    ThreadState t(entry, lanes, mem, start_cycle, cfg_);
    if (faults_ && faults_->parityEnabled())
        refreshParity(t.regs);
    while (t.retired < max_insts) {
        Step step = boundary(t);
        if (step == Step::Go) {
            const Resident got = residency(t);
            ActivationOutput act;
            step = activate(t, got, act);
            if (step == Step::Go)
                step = exitActivation(t, got, act);
        }
        if (step == Step::Stop)
            return t.res;
    }
    // Instruction budget spent: sim::Processor reports the stop.
    t.stop(t.now(), t.pc, {});
    return t.res;
}

Ring::Step
Ring::boundary(ThreadState &t)
{
    // Host cancellation and the misaligned-pc trap (reachable through
    // jalr off a corrupted lane), under the rules the OoO shares.
    if (sim::boundaryStop(cancel_, t.activations++, t.pc, t.res)) {
        t.stop(t.now(), t.pc, std::move(t.res.stop_reason));
        return Step::Stop;
    }
    // Forward-progress watchdog: activation boundaries that stop
    // retiring instructions mean a control-unit livelock.
    if (t.wd.onProgress(t.retired) || t.wd.onCycle(t.now())) {
        dumpState(t.wd.reason().c_str());
        t.res.timed_out = true;
        t.stop(t.now(), t.pc, t.wd.reason());
        return Step::Stop;
    }
    return faults_ ? faultBoundary(t) : Step::Go;
}

Ring::Step
Ring::faultBoundary(ThreadState &t)
{
    // Activation boundary = checkpoint: snapshot architectural state
    // *before* injection so recovery restores a clean image, then let
    // due fault events strike.
    fault::ThreadCheckpoint &ckpt = t.ckpt;
    ckpt.valid = true;
    ckpt.pc = t.pc;
    ckpt.pc_enter = t.pc_enter;
    ckpt.min_start = t.min_start;
    ckpt.retired = t.retired;
    ckpt.regs = t.regs;
    ckpt.inflight = t.inflight;
    ckpt.mem_lanes = t.tmc;
    faults_->undoLog().clear();
    faults_->oracleMark();
    faults_->onBoundary(t.regs, t.tmc, t.mem, mh_, t.retired);
    if (trc_)
        trc_->checkpoint(static_cast<u8>(index_), t.pc, t.now(),
                         t.retired);
    if (!faults_->parityEnabled())
        return Step::Go;
    const int bad = faults_->paritySweep(t.regs);
    if (bad < 0)
        return Step::Go;
    ++counters_[DiagCounter::fault_parity_detections];
    faults_->noteParityDetection();
    if (!faults_->recoveryBudgetLeft()) {
        t.res.aborted = true;
        t.stop(t.now(), t.pc,
               detail::vformat("parity error on lane %d: recovery "
                               "budget exhausted", bad));
        return Step::Stop;
    }
    // Lane scrub: restore the checkpointed lane file and pay the
    // recovery penalty before re-entry.
    faults_->noteRecovery();
    ++counters_[DiagCounter::fault_recoveries];
    t.regs = ckpt.regs;
    const Cycle resume = t.now() + faults_->detect().recovery_penalty;
    t.pc_enter = resume;
    t.min_start = resume;
    if (trc_)
        trc_->rollback(static_cast<u8>(index_), t.pc, resume,
                       faults_->tally().recoveries);
    return Step::Go;
}

Ring::Resident
Ring::residency(ThreadState &t)
{
    const Cycle demand = t.now();
    const Resident got =
        ensureLoaded(alignDown(t.pc, line_bytes_), demand, t.mem);
    if (got.reused)
        ++counters_[DiagCounter::reuse_activations];
    if (got.ready > demand)
        counters_[DiagCounter::fetch_wait_cycles] += got.ready - demand;
    return got;
}

Ring::Step
Ring::activate(ThreadState &t, const Resident &got, ActivationOutput &act)
{
    Cluster &cl = *got.cluster;
    ActivationInput in;
    in.cluster = &cl;
    in.entry_pc = t.pc;
    in.pc_enter = std::max(t.pc_enter, got.ready);
    // Per-PE occupancy is enforced inside the activation engine;
    // min_start carries decode readiness, squash re-steer floors, and
    // the bounded speculation window.
    in.min_start = std::max(t.min_start, got.ready);
    if (t.inflight.size() >= cfg_.speculation_depth)
        in.min_start = std::max(in.min_start, t.inflight.front());
    in.mode = ActMode::Serial;
    in.trap_on_simt = cfg_.simt_enabled;

    // Overlap: prefetch the fall-through line while executing — but
    // not while a loop is resident in this line (a backward branch will
    // re-enter it; prefetching would evict the loop's own lines in
    // small rings, defeating reuse).
    if (!cl.has_backward_branch)
        prefetch(alignDown(t.pc, line_bytes_) + line_bytes_, in.min_start,
                 t.mem);

    act = engine_.run(in, t.regs, t.tmc);
    if (trc_)
        trc_->activation(static_cast<u8>(index_),
                         static_cast<u16>(cl.index), t.pc, in.min_start,
                         act.end_cycle, got.reused, act.retired);
    // The cluster accepts the next (speculative) activation once its
    // PEs finished executing; the retire sweep (pc_exit) can trail
    // behind.
    cl.free_at = act.compute_done;
    cl.last_use = ++use_counter_;
    const Step step = lockstep(t, cl, act.end_cycle);
    if (step != Step::Go)
        return step;
    t.retired += act.retired;
    t.inflight.push_back(act.compute_done);
    if (t.inflight.size() > cfg_.speculation_depth)
        t.inflight.pop_front();
    return Step::Go;
}

Ring::Step
Ring::lockstep(ThreadState &t, Cluster &cl, Cycle end)
{
    if (!faults_ || !faults_->divergencePending())
        return Step::Go;
    // The lockstep oracle flagged a retirement mismatch inside this
    // activation: discard its architectural effects (precise at the
    // activation boundary), roll back, and re-execute. A cluster blamed
    // repeatedly is taken offline.
    ++counters_[DiagCounter::fault_lockstep_detections];
    faults_->noteLockstepDetection();
    if (!faults_->recoveryBudgetLeft()) {
        t.res.aborted = true;
        t.stop(end, t.pc,
               "lockstep: " + faults_->divergenceReason() +
                   " (recovery budget exhausted)");
        return Step::Stop;
    }
    faults_->noteRecovery();
    ++counters_[DiagCounter::fault_recoveries];
    faults_->undoLog().rollback(t.mem);
    t.regs = t.ckpt.regs;
    t.pc = t.ckpt.pc;
    t.retired = t.ckpt.retired;
    t.tmc = *t.ckpt.mem_lanes;
    t.inflight = t.ckpt.inflight;
    const Cycle resume = end + faults_->detect().recovery_penalty;
    t.pc_enter = resume;
    t.min_start = resume;
    if (trc_)
        trc_->rollback(static_cast<u8>(index_), t.pc, resume,
                       faults_->tally().recoveries);
    faults_->oracleRewind();
    faults_->clearDivergence();
    if (faults_->strike(cl.index) && enabledClusters() > 2)
        disableCluster(cl);
    return Step::Next;
}

Ring::Step
Ring::exitActivation(ThreadState &t, const Resident &got,
                     const ActivationOutput &act)
{
    switch (act.exit) {
      case ActExit::Halt:
        return halt(t, act);
      case ActExit::SimtTrap:
        return simtTrap(t, got, act);
      case ActExit::FellThrough:
        handOver(t, act.exit_pc, act.exit_resolve);
        return Step::Next;
      case ActExit::Redirect:
        redirect(t, *got.cluster, act);
        return Step::Next;
      case ActExit::ThreadEnd:
        break;
    }
    panic("ThreadEnd exit outside a simt pipeline stage");
}

Ring::Step
Ring::halt(ThreadState &t, const ActivationOutput &act)
{
    t.res.halted = !act.faulted;
    t.res.faulted = act.faulted;
    t.stop(act.end_cycle, act.exit_pc,
           act.faulted ? detail::vformat(
                             "trap: invalid encoding at pc 0x%x",
                             act.exit_pc)
                       : std::string());
    return Step::Stop;
}

void
Ring::handOver(ThreadState &t, Addr next, Cycle resolve)
{
    t.pc = next;
    t.pc_enter = resolve + cfg_.inter_cluster_latch;
    t.min_start = 0;
    for (LaneState &l : t.regs)
        l.ready += cfg_.inter_cluster_latch;
}

void
Ring::farRedirect(ThreadState &t, Addr next, Cycle resolve)
{
    const Cycle grant = bus_.request(resolve, cfg_.bus_regfile_transfer);
    const Cycle xfer = grant + cfg_.bus_regfile_transfer;
    for (LaneState &l : t.regs)
        l.ready = std::max(l.ready, grant) + cfg_.bus_regfile_transfer;
    t.pc = next;
    t.pc_enter = xfer;
    t.min_start = resolve + cfg_.squash_resteer;
    counters_[DiagCounter::ctrl_stall_cycles] += xfer - resolve;
}

void
Ring::redirect(ThreadState &t, const Cluster &cl,
               const ActivationOutput &act)
{
    if (trc_)
        trc_->pcRedirect(static_cast<u8>(index_),
                         static_cast<u16>(cl.index), t.pc,
                         act.exit_resolve, act.exit_pc);
    const auto res_it = resident_.find(alignDown(act.exit_pc, line_bytes_));
    if (cfg_.reuse_enabled && act.redirect_backward &&
        res_it != resident_.end()) {
        // Predicted-taken backward branch into a resident datapath: no
        // fetch, no decode, no re-steer bubble — the control unit's
        // scheduling table has the loop's head/tail clusters registered
        // (§5.1.3), so the lane wrap path is pre-configured and the
        // handover costs one latch like any cluster-to-cluster
        // transfer.
        handOver(t, act.exit_pc, act.exit_resolve);
        t.min_start = act.branch_done + cfg_.inter_cluster_latch;
        ++counters_[DiagCounter::reuse_redirects];
        if (trc_)
            trc_->reuseHit(static_cast<u8>(index_),
                           static_cast<u16>(clusters_[res_it->second].index),
                           t.pc, t.pc_enter);
    } else if (act.exit_pc == alignDown(t.pc, line_bytes_) + line_bytes_) {
        // Taken forward branch to the immediately next line: lanes hand
        // over through the inter-cluster latch; the wrong-path squash
        // costs the re-steer bubble.
        handOver(t, act.exit_pc, act.exit_resolve);
        t.min_start = act.exit_resolve + cfg_.squash_resteer;
        counters_[DiagCounter::ctrl_stall_cycles] += cfg_.squash_resteer;
    } else {
        // Mispredicted control transfer to a far or non-resident
        // target: register file over the bus plus the squash re-steer.
        farRedirect(t, act.exit_pc, act.exit_resolve);
    }
}

Ring::Step
Ring::simtTrap(ThreadState &t, const Resident &got,
               const ActivationOutput &act)
{
    const Addr simt_s_pc = act.exit_pc;
    if (!not_pipelinable_.count(simt_s_pc)) {
        const SimtRegion region = scanSimtRegion(simt_s_pc, t.mem);
        if (region.ok) {
            if (runSimtPipeline(region, simt_s_pc, act.exit_resolve, t))
                return Step::Next;
            dumpState("simt pipeline cycle ceiling");
            t.res.timed_out = true;
            t.stop(t.now(), t.pc,
                   detail::vformat("watchdog: simt pipeline exceeded "
                                   "max_cycles %llu",
                                   static_cast<unsigned long long>(
                                       cfg_.max_cycles)));
            return Step::Stop;
        }
        not_pipelinable_.insert(simt_s_pc);
        ++counters_[DiagCounter::simt_fallbacks];
    }
    // Fall back to scalar execution: re-enter at the simt_s with
    // trapping suppressed via a one-shot serial pass.
    Cluster &cl = *got.cluster;
    ActivationInput again;
    again.cluster = &cl;
    again.entry_pc = simt_s_pc;
    again.pc_enter = std::max(act.exit_resolve, got.ready);
    again.min_start = again.pc_enter;
    again.mode = ActMode::Serial;
    const ActivationOutput act2 = engine_.run(again, t.regs, t.tmc);
    if (trc_)
        trc_->activation(static_cast<u8>(index_),
                         static_cast<u16>(cl.index), simt_s_pc,
                         again.min_start, act2.end_cycle, false,
                         act2.retired);
    cl.free_at = act2.end_cycle;
    // A divergence re-executes the whole activation, simt trap
    // included, from the boundary checkpoint.
    const Step step = lockstep(t, cl, act2.end_cycle);
    if (step != Step::Go)
        return step;
    t.retired += act2.retired;
    if (act2.exit == ActExit::Halt)
        return halt(t, act2);
    // Unlike a serial redirect, a taken branch out of this pass always
    // ships the register file over the bus.
    if (act2.exit == ActExit::FellThrough)
        handOver(t, act2.exit_pc, act2.exit_resolve);
    else
        farRedirect(t, act2.exit_pc, act2.exit_resolve);
    return Step::Next;
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
                      Cycle resolve, ThreadState &t)
{
    // Retirement order across pipelined threads is interleaved, so the
    // instruction-by-instruction golden oracle cannot follow it.
    fatal_if(faults_ && faults_->lockstepEnabled(),
             "golden-lockstep checking is incompatible with simt "
             "thread pipelining; disable one of the two");
    const auto &f = region.fields;
    auto reg_value = [&](RegId r) -> u32 {
        return r == kRegZero ? 0 : t.regs[r].value;
    };
    const u32 rc0 = reg_value(f.rc);
    const u32 step = reg_value(f.rStep);
    const u32 end = reg_value(f.rEnd);

    const analysis::SimtTrips count =
        analysis::simtTripCount(rc0, step, end);
    const u64 trips = count.trips;
    if (count.capped)
        warn("simt region at 0x%x exceeds 2^20 threads; capping",
             simt_s_pc);
    ++counters_[DiagCounter::simt_regions];
    counters_[DiagCounter::simt_threads] += trips;
    // Per-region counts let the bound validator compare each region's
    // measured duration against its static model (tools/diag_bound.cpp
    // --validate).
    CounterSet<RegionCounter> &counts = counters_.regions[simt_s_pc];
    ++counts[RegionCounter::entries];
    counts[RegionCounter::threads] += trips;
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
    counters_[DiagCounter::simt_replicas] += replicas;

    // Allocate and load stage clusters: replica r, stage s uses a
    // dedicated cluster. Replica 0 reuses already-resident lines.
    std::vector<std::vector<Cluster *>> stage(replicas);
    Cycle ready_all = resolve;
    for (unsigned r = 0; r < replicas; ++r) {
        for (const Addr line : lines) {
            Cluster *cl = nullptr;
            Cycle ready = 0;
            if (r == 0) {
                const Resident got = ensureLoaded(line, resolve, t.mem);
                cl = got.cluster;
                ready = got.ready;
            } else {
                cl = &chooseVictim();
                ready = loadLine(*cl, line, resolve, t.mem);
            }
            stage[r].push_back(cl);
            ready_all = std::max(ready_all, ready);
        }
    }

    const Cycle interval = std::max<Cycle>(1, f.interval);
    Cycle launch = std::max(resolve, ready_all);
    Cycle last_exit_resolve = resolve;
    LaneFile last_regs = t.regs;

    for (u64 k = 0; k < trips; ++k) {
        if (cfg_.max_cycles != 0 && launch > cfg_.max_cycles) {
            if (atrc_)
                atrc_->regionExit(); // close the partial entry record
            return false; // structured timeout, not an endless spin
        }
        const auto &my_stages = stage[k % replicas];
        LaneFile thr = t.regs;
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
            const ActivationOutput act = engine_.run(in, thr, t.tmc);
            if (trc_) {
                trc_->simtStage(static_cast<u8>(index_),
                                static_cast<u16>(cl.index), tpc,
                                in.min_start, act.end_cycle, k);
                trc_->retired(act.end_cycle, act.retired);
            }
            cl.free_at = act.end_cycle;
            cl.last_use = ++use_counter_;
            t.retired += act.retired;
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

    counts[RegionCounter::cycles] +=
        last_exit_resolve + cfg_.inter_cluster_latch - resolve;
    if (trc_)
        trc_->regionExit(static_cast<u8>(index_), simt_s_pc, resolve,
                         last_exit_resolve + cfg_.inter_cluster_latch);
    if (atrc_)
        atrc_->regionExit();
    // Only the last thread's lanes propagate past simt_e (paper §5.4).
    t.regs = last_regs;
    handOver(t, region.simt_e_pc + 4, last_exit_resolve);
    return true;
}

} // namespace diag::core
