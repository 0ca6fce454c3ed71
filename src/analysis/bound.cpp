#include "analysis/bound.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "analysis/lint.hpp"
#include "analysis/simt_scan.hpp"
#include "common/bits.hpp"
#include "common/log.hpp"
#include "isa/decoder.hpp"
#include "isa/latency.hpp"

namespace diag::analysis
{

using namespace diag::isa;

namespace
{

/**
 * Lane-buffer crossing delay, mirroring diag/lanes.hpp laneDelay()
 * (the analysis layer must not include runtime headers — the runtime
 * already includes ours). The input latch behaves like segment 0.
 */
constexpr Cycle
segDelay(int producer_seg, int consumer_seg)
{
    const int from = producer_seg < 0 ? 0 : producer_seg;
    return static_cast<Cycle>(consumer_seg - from);
}

/** One lane's timing in the optimistic schedule. */
struct MiniLane
{
    Cycle ready = 0;
    int seg = -1;  //!< -1 = cluster input latch
};

using MiniLanes = std::array<MiniLane, kNumRegs>;

/**
 * Memory-order state threaded through consecutive activations: the
 * simulator gates every load on the resolve time of all older store
 * addresses (sim/mem_order.hpp), shared across pipelined threads.
 * This is the recurrence that serializes regions whose store
 * addresses depend on loaded data.
 */
struct GateState
{
    Cycle store_addr_gate = 0;
    /** Store done times by pc (same-thread forwarding sources). */
    std::map<Addr, Cycle> store_done;
};

/** Shared inputs of the mini schedule emulator. */
struct Ctx
{
    const BoundParams &p;
    unsigned line_bytes;
    unsigned pes;
    /** Per-load latency beyond address generation. Null = use the
     *  provable minimum everywhere (lower-bound mode). */
    const std::map<Addr, Cycle> *load_extra = nullptr;
    Cycle min_load_extra = 1;
    /** When set, model the store-address load gate. */
    GateState *gate = nullptr;
    /** Load pc -> forwarding store pc (prediction mode only). */
    const std::map<Addr, Addr> *fwd_store = nullptr;
    /**
     * Treat forward branches as taken (prediction of branchy simt
     * bodies): an in-line skip floors downstream PEs at the branch
     * resolve plus the squash re-steer (activation.cpp), a cross-line
     * skip ends the activation with a redirect.
     */
    bool assume_taken = false;
};

Cycle
loadExtraAt(const Ctx &ctx, Addr pc)
{
    if (!ctx.load_extra)
        return ctx.min_load_extra;
    const auto it = ctx.load_extra->find(pc);
    return it == ctx.load_extra->end() ? ctx.min_load_extra
                                       : it->second;
}

bool
isUnpipelined(const DecodedInst &di)
{
    const ExecClass cls = di.cls();
    return cls == ExecClass::IntDiv || cls == ExecClass::FpDiv ||
           cls == ExecClass::FpSqrt;
}

/** Exit record of one emulated activation (sub-)range. */
struct MiniOut
{
    Cycle exit_resolve = 0;  //!< PC-lane leave time at the exit
    Cycle branch_done = 0;   //!< the exiting instruction's done time
    bool thread_end = false; //!< simt_e reached in stage mode
    Addr redirect = 0;       //!< assumed-taken cross-line target
};

/** Convert lanes to cluster-output-latch timing (engine exit). */
void
latchLanes(MiniLanes &lane, int last_seg)
{
    for (MiniLane &l : lane) {
        l.ready += segDelay(l.seg, last_seg);
        l.seg = -1;
    }
}

/**
 * Emulate the activation engine over [from, to] within the I-line at
 * @p line, using the engine's exact additive timing rules but the
 * minimum of every nondeterministic delay (see activation.cpp run()).
 * @p taken_tail treats the instruction at @p to as a taken control
 * transfer (loop-tail emulation); @p fell_exit adds the fell-through
 * PC traversal to the line's last segment.
 */
MiniOut
miniRun(const Program &prog, Addr line, Addr from, Addr to,
        MiniLanes &lane, std::vector<Cycle> &pe_busy, Cycle pc_enter,
        Cycle min_start, bool stage_mode, bool taken_tail,
        bool fell_exit, const Ctx &ctx)
{
    const int last_seg =
        static_cast<int>((ctx.pes - 1) / ctx.p.segment_size);
    Cycle pc_cursor = pc_enter;
    int pc_seg = 0;
    Cycle floor = min_start;
    MiniOut out;

    auto avail = [&](RegId r, int seg) -> Cycle {
        if (r == kNoReg || r == kRegZero)
            return 0;
        return lane[r].ready + segDelay(lane[r].seg, seg);
    };

    for (Addr pc = from; pc <= to;) {
        const unsigned i = static_cast<unsigned>((pc - line) / 4);
        const DecodedInst di = decode(prog.word(pc));
        const int seg = static_cast<int>(i / ctx.p.segment_size);

        Cycle ops = std::max(avail(di.rs1, seg), avail(di.rs2, seg));
        if (di.rs3 != kNoReg)
            ops = std::max(ops, avail(di.rs3, seg));
        const Cycle busy = i < pe_busy.size() ? pe_busy[i] : 0;
        const Cycle start = std::max({ops, floor, busy});

        Cycle done;
        if (di.isLoad()) {
            Cycle issue = start + 1;  // address generation
            if (ctx.gate)
                issue = std::max(issue, ctx.gate->store_addr_gate);
            done = issue + loadExtraAt(ctx, pc);
            if (ctx.gate && ctx.fwd_store) {
                // Forwarding data arrives no earlier than the source
                // store's done time (StoreTracker::forwardProbe).
                const auto f = ctx.fwd_store->find(pc);
                if (f != ctx.fwd_store->end()) {
                    const auto st =
                        ctx.gate->store_done.find(f->second);
                    if (st != ctx.gate->store_done.end())
                        done = std::max(issue, st->second) +
                               ctx.p.mem_lane_latency;
                }
            }
        } else if (di.isStore()) {
            done = start + 1;
            if (ctx.gate) {
                const Cycle addr_ready =
                    std::max(avail(di.rs1, seg), floor) + 1;
                ctx.gate->store_addr_gate = std::max(
                    ctx.gate->store_addr_gate, addr_ready);
                ctx.gate->store_done[pc] = done;
            }
        } else {
            done = start + execLatency(di);
        }

        if (di.writesReg())
            lane[di.rd] = {done, seg};

        const Cycle pc_arrive = pc_cursor + segDelay(pc_seg, seg);
        const Cycle pc_leave = std::max(pc_arrive, done);
        pc_cursor = pc_leave;
        pc_seg = seg;
        if (i < pe_busy.size())
            pe_busy[i] = stage_mode && !isUnpipelined(di) ? start + 1
                                                          : done;

        if (stage_mode && di.op == Op::SIMT_E) {
            out.thread_end = true;
            out.exit_resolve = pc_leave;
            out.branch_done = done;
            latchLanes(lane, last_seg);
            return out;
        }
        if (taken_tail && pc == to) {
            out.exit_resolve = pc_leave;
            out.branch_done = done;
            latchLanes(lane, last_seg);
            return out;
        }
        if (ctx.assume_taken && di.imm > 0 &&
            (di.isBranch() || di.op == Op::JAL)) {
            const Addr target = pc + static_cast<u32>(di.imm);
            if (target <= to) {
                // In-line forward skip: downstream PEs re-enable at
                // the branch resolve plus the squash re-steer.
                floor = std::max(floor,
                                 pc_leave + ctx.p.squash_resteer);
                pc = target;
                continue;
            }
            // Cross-line skip: the activation ends with a redirect.
            out.exit_resolve = pc_leave;
            out.branch_done = done;
            out.redirect = target;
            latchLanes(lane, last_seg);
            return out;
        }
        pc += 4;
    }
    if (fell_exit)
        pc_cursor += segDelay(pc_seg, last_seg);
    out.exit_resolve = pc_cursor;
    out.branch_done = pc_cursor;
    latchLanes(lane, last_seg);
    return out;
}

/** Pipeline emulation result over several successive threads. */
struct PipeModel
{
    Cycle fill = 0;     //!< thread 0 launch-to-exit-resolve
    double ii_mean = 1; //!< mean steady-state exit increment
    double ii_min = 1;  //!< smallest late increment (provable slope)
};

/**
 * Emulate a sequence of pipelined threads through the region body
 * (simt_s+4 .. simt_e), lines chained through the inter-cluster
 * latch like Ring::runSimtPipeline: thread k launches at k*interval
 * and all threads share the store-address load gate. The late exit
 * increments give the steady-state initiation interval, including
 * the memory-order recurrence (a store address computed from loaded
 * data serializes successive threads through the gate).
 *
 * Branchy bodies (base.assume_taken) mix taken and fall-through
 * threads three-to-one: region guards are skip-the-update branches
 * (argmin updates, boundary clamps) that are taken more often than
 * not — an argmin over K candidates takes its k-th guard k/(k+1) of
 * the time. The mix runs through one shared gate, so a taken thread's
 * late store still delays the fall-through thread behind it, which an
 * average of two single-outcome runs would miss.
 */
PipeModel
pipeEmulate(const Program &prog, Addr body_begin, Addr simt_e_pc,
            Cycle interval, RegId rc, const Ctx &base)
{
    constexpr int kThreads = 16;
    GateState gs;
    Ctx ctx = base;
    ctx.gate = &gs;
    std::array<Cycle, kThreads> resolve{};
    for (int k = 0; k < kThreads; ++k) {
        ctx.assume_taken = base.assume_taken && k % 4 != 3;
        gs.store_done.clear();  // forwarding is same-thread only
        const Cycle launch = static_cast<Cycle>(k) * interval;
        MiniLanes lane{};
        if (rc != kNoReg && rc != kRegZero)
            lane[rc] = {launch, -1};
        Cycle pc_enter = launch;
        Cycle min_start = launch;
        Addr pc = body_begin;
        MiniOut o;
        for (;;) {
            const Addr line = alignDown(pc, ctx.line_bytes);
            const Addr line_last = line + ctx.line_bytes - 4;
            const Addr to = std::min(line_last, simt_e_pc);
            std::vector<Cycle> busy(ctx.pes, 0);
            o = miniRun(prog, line, pc, to, lane, busy, pc_enter,
                        min_start, /*stage_mode=*/true,
                        /*taken_tail=*/false,
                        /*fell_exit=*/to != simt_e_pc, ctx);
            if (o.thread_end)
                break;
            pc = o.redirect ? o.redirect : to + 4;
            pc_enter = o.exit_resolve + ctx.p.inter_cluster_latch;
            min_start = 0;
            for (MiniLane &l : lane)
                l.ready += ctx.p.inter_cluster_latch;
        }
        resolve[static_cast<size_t>(k)] = o.exit_resolve;
    }
    PipeModel m;
    m.fill = resolve[0];
    // Steady state: the max-plus recurrence settles to a periodic
    // increment after a short transient; average the late increments
    // for the prediction and take their minimum for the bound.
    double sum = 0;
    double mn = 1e18;
    constexpr int kTail = 8;
    for (int k = kThreads - kTail; k < kThreads; ++k) {
        const double d = static_cast<double>(
            resolve[static_cast<size_t>(k)] -
            resolve[static_cast<size_t>(k - 1)]);
        sum += d;
        mn = std::min(mn, d);
    }
    m.ii_mean = std::max(sum / kTail, static_cast<double>(interval));
    m.ii_min = std::max(mn, static_cast<double>(interval));
    return m;
}

/**
 * Steady-state cycles per iteration of a resident straight-line loop
 * under datapath reuse: emulate several iterations with persistent
 * per-PE occupancy and carried lanes, then measure the last delta.
 */
double
loopIterPred(const Program &prog, Addr head, Addr tail,
             const Ctx &ctx)
{
    std::map<Addr, std::vector<Cycle>> busy_by_line;
    GateState gs;  // the load gate carries across serial iterations
    Ctx gctx = ctx;
    gctx.gate = &gs;
    MiniLanes lane{};
    Cycle pc_enter = 0;
    Cycle min_start = 0;
    constexpr int kIters = 8;
    std::array<Cycle, kIters> resolve{};
    for (int k = 0; k < kIters; ++k) {
        Addr pc = head;
        MiniOut o;
        for (;;) {
            const Addr line = alignDown(pc, ctx.line_bytes);
            const Addr line_last = line + ctx.line_bytes - 4;
            const Addr to = std::min(line_last, tail);
            auto &busy = busy_by_line[line];
            if (busy.empty())
                busy.resize(ctx.pes, 0);
            o = miniRun(prog, line, pc, to, lane, busy, pc_enter,
                        min_start, /*stage_mode=*/false,
                        /*taken_tail=*/to == tail,
                        /*fell_exit=*/to != tail, gctx);
            if (to == tail)
                break;
            pc = to + 4;
            pc_enter = o.exit_resolve + ctx.p.inter_cluster_latch;
            min_start = 0;
            for (MiniLane &l : lane)
                l.ready += ctx.p.inter_cluster_latch;
        }
        resolve[static_cast<size_t>(k)] = o.exit_resolve;
        // Taken backward branch into the resident datapath: one latch,
        // the branch's done time floors the next wavefront (runThread
        // Redirect-with-reuse arm).
        pc_enter = o.exit_resolve + ctx.p.inter_cluster_latch;
        min_start = o.branch_done + ctx.p.inter_cluster_latch;
        for (MiniLane &l : lane)
            l.ready += ctx.p.inter_cluster_latch;
    }
    return static_cast<double>(resolve[kIters - 1] -
                               resolve[kIters - 5]) /
           4.0;
}

/** True iff [begin, end) decodes entirely without control flow. */
bool
rangeStraightline(const Program &prog, Addr begin, Addr end)
{
    for (Addr pc = begin; pc < end; pc += 4) {
        const DecodedInst di = decode(prog.word(pc));
        if (!di.valid() || di.isControl() || di.isSimt())
            return false;
    }
    return true;
}

} // namespace

RegionBound::Terms
RegionBound::terms(double threads, double entries) const
{
    Terms t;
    if (entries > 0) {
        const auto want =
            static_cast<unsigned>(std::max(1.0, threads / entries));
        t.replicas = std::max(1u, std::min(max_replicas, want));
    }
    t.ii = std::max({ii_gate, resource_ii / t.replicas, bank_ii});
    if (t.replicas > 1)
        t.entry_setup = static_cast<double>(t.replicas - 1) * lines *
                            setup_per_line +
                        setup_fixed;
    t.fill = entries * fill_pred;
    t.steady = (threads - entries) * t.ii;
    t.setup = entries * t.entry_setup;
    return t;
}

double
RegionBound::lowerBound(double threads, double entries) const
{
    if (entries <= 0)
        return 0;
    // Per entry: the last thread's exit is at least fill + (T-1)
    // steady increments; the increment is the launch cadence or the
    // provable memory-order recurrence.
    return entries * static_cast<double>(fill_lb) +
           (threads - entries) * ii_lb;
}

double
RegionBound::predict(double threads, double entries) const
{
    if (entries <= 0)
        return 0;
    const Terms t = terms(threads, entries);
    return entries * (fill_pred + t.entry_setup) + t.steady;
}

const char *
RegionBound::bottleneck(double threads, double entries) const
{
    const Terms t = terms(threads, entries);
    if (t.fill >= t.steady)
        return "recurrence";  // dominated by the per-thread lane
                              // critical path (pipeline mostly fills)
    if (ii_gate > static_cast<double>(interval) &&
        ii_gate >= resource_ii / t.replicas && ii_gate >= bank_ii)
        return "memory-order";  // the store-address gate serializes
                                // successive threads
    if (bank_ii > static_cast<double>(interval) &&
        bank_ii >= resource_ii / t.replicas)
        return "memory-bandwidth";  // L1D banks saturate on store
                                    // write-backs + thrashing loads
    if (t.ii <= static_cast<double>(interval))
        return "recurrence";  // launch cadence (the rc chain) limits
    if (unpip_ii > lsu_ii)
        return "compute";
    if (t.replicas == max_replicas && lines > 1)
        return "cluster-fit";
    return "memory-lane";
}

BoundResult
analyzeBound(const Cfg &cfg, const Program &prog,
             const MemDepResult &md, const LintOptions &opt,
             LintResult *report)
{
    BoundResult out;
    const BoundParams &p = opt.timing;
    Ctx lb_ctx{p, opt.line_bytes, opt.line_bytes / 4, nullptr,
               std::min({p.mem_lane_latency, p.line_buffer_latency,
                         p.l1d_hit_latency})};

    // ---- per-block lane critical paths ----
    for (const BasicBlock &bb : cfg.blocks) {
        bool plain = true;
        for (Addr pc = bb.first; pc <= bb.last; pc += 4) {
            const auto it = cfg.insts.find(pc);
            if (it == cfg.insts.end() || it->second.isSimt()) {
                plain = false;
                break;
            }
        }
        if (!plain)
            continue;
        BlockBound b;
        b.first = bb.first;
        b.last = bb.last;
        b.insts = static_cast<unsigned>(bb.size());
        MiniLanes lane{};
        Cycle pc_enter = 0;
        Addr pc = bb.first;
        for (;;) {
            const Addr line = alignDown(pc, opt.line_bytes);
            const Addr line_last = line + opt.line_bytes - 4;
            const Addr to = std::min(line_last, bb.last);
            std::vector<Cycle> busy(lb_ctx.pes, 0);
            const MiniOut o =
                miniRun(prog, line, pc, to, lane, busy, pc_enter, 0,
                        false, false, /*fell_exit=*/to != bb.last,
                        lb_ctx);
            if (to == bb.last) {
                b.crit_lb = o.exit_resolve;
                break;
            }
            pc = to + 4;
            pc_enter = o.exit_resolve + p.inter_cluster_latch;
            for (MiniLane &l : lane)
                l.ready += p.inter_cluster_latch;
        }
        out.blocks.push_back(b);
    }

    // ---- resident-loop iteration periods ----
    for (const auto &[pc, di] : cfg.insts) {
        const bool backward =
            (di.isBranch() || di.op == Op::JAL) && di.imm < 0;
        if (!backward)
            continue;
        LoopBound lp;
        lp.head = pc + static_cast<u32>(di.imm);
        lp.tail = pc;
        lp.insts =
            static_cast<unsigned>((lp.tail - lp.head) / 4) + 1;
        lp.lines = static_cast<unsigned>(
                       (alignDown(lp.tail, opt.line_bytes) -
                        alignDown(lp.head, opt.line_bytes)) /
                       opt.line_bytes) +
                   1;
        lp.resident = lp.lines <= opt.clusters_per_ring;
        lp.straightline = rangeStraightline(prog, lp.head, lp.tail);
        if (lp.resident && lp.straightline)
            lp.iter_pred = loopIterPred(prog, lp.head, lp.tail,
                                        lb_ctx);
        out.loops.push_back(lp);
    }

    // ---- simt-region pipeline models ----
    for (const RegionMemDep &rm : md.regions) {
        RegionBound r;
        r.simt_s_pc = rm.simt_s_pc;
        r.simt_e_pc = rm.simt_e_pc;
        r.body_insts = static_cast<unsigned>(
            (rm.simt_e_pc - rm.simt_s_pc) / 4);
        const Addr first_line =
            alignDown(rm.simt_s_pc + 4, opt.line_bytes);
        const Addr last_line = alignDown(rm.simt_e_pc, opt.line_bytes);
        r.lines = static_cast<unsigned>(
                      (last_line - first_line) / opt.line_bytes) +
                  1;
        r.max_replicas =
            std::max(1u, opt.clusters_per_ring / r.lines);
        const DecodedInst start = decode(prog.word(rm.simt_s_pc));
        r.interval = std::max<Cycle>(1, simtStartFields(start).interval);
        r.straightline =
            rangeStraightline(prog, rm.simt_s_pc + 4, rm.simt_e_pc);

        // Resource floors per replica: the per-cluster LSU load port
        // and unpipelined divide/sqrt units.
        std::map<Addr, unsigned> loads_per_line;
        for (Addr pc = rm.simt_s_pc + 4; pc <= rm.simt_e_pc; pc += 4) {
            const DecodedInst di = decode(prog.word(pc));
            if (di.isLoad())
                ++loads_per_line[alignDown(pc, opt.line_bytes)];
            if (isUnpipelined(di))
                r.unpip_ii = std::max(
                    r.unpip_ii,
                    static_cast<double>(execLatency(di)));
        }
        for (const auto &[line, n] : loads_per_line)
            r.lsu_ii = std::max(
                r.lsu_ii, static_cast<double>(
                              n * p.lsu_issue_occupancy));
        r.resource_ii = std::max({1.0, r.lsu_ii, r.unpip_ii});
        // Replicas beyond the first reload (replicas-1)*lines stage
        // lines every entry, serialized over the bus, plus one
        // fetch + transfer + decode tail (Ring::loadLine).
        r.setup_per_line = static_cast<double>(p.bus_iline_transfer);
        r.setup_fixed =
            static_cast<double>(p.l1i_hit_latency +
                                p.bus_iline_transfer + p.decode_latency);
        const RegId rc = simtStartFields(start).rc;

        // Line-buffer residency per cluster: group each access stream
        // by its 64-byte data-line identity (base term and scale, rc
        // stride, offset window). A cluster whose streams outnumber
        // the buffer entries thrashes — its loads fall through to the
        // banked L1D — and every store writes back through the banks
        // regardless, so the banks impose a throughput floor shared
        // by all replicas.
        using LineGroup = std::tuple<u32, i64, i64, i64>;
        const auto lineGroup = [&](const SymVal &ea) {
            const i64 grain = static_cast<i64>(p.l1d_line_bytes);
            const i64 window = ea.off >= 0 ? ea.off / grain
                                           : (ea.off - grain + 1) / grain;
            return LineGroup{ea.base, ea.scale, ea.rc, window};
        };
        std::map<Addr, std::set<LineGroup>> load_groups;
        std::map<Addr, std::set<LineGroup>> all_groups;
        for (const LoadDep &ld : rm.loads) {
            if (ld.cls == LoadClass::LaneForwardable)
                continue;  // served by the lanes, not the buffer
            const Addr cl = alignDown(ld.pc, opt.line_bytes);
            load_groups[cl].insert(lineGroup(ld.ea));
            all_groups[cl].insert(lineGroup(ld.ea));
        }
        for (const StoreRef &st : rm.stores)
            all_groups[alignDown(st.pc, opt.line_bytes)].insert(
                lineGroup(st.ea));
        std::set<Addr> thrashing;
        double bank_demand = static_cast<double>(rm.stores.size());
        for (const auto &[cl, groups] : all_groups) {
            if (groups.size() <= p.line_buf_entries)
                continue;
            thrashing.insert(cl);
            // Each distinct stream costs one banked access per
            // thread; same-stream neighbors hit the just-filled
            // buffer entry.
            const auto lg = load_groups.find(cl);
            if (lg != load_groups.end())
                bank_demand += static_cast<double>(lg->second.size());
        }
        r.bank_ii = bank_demand *
                    static_cast<double>(p.l1d_bank_occupancy) /
                    static_cast<double>(std::max(1u, p.l1d_banks));

        // Prediction: forwardable loads hit the memory lanes, loads
        // in a thrashing cluster pay the banked L1D, everything else
        // the cluster line buffer (streaming bodies touch the same
        // line many threads in a row).
        std::map<Addr, Cycle> pred_extra;
        std::map<Addr, Addr> fwd_store;
        for (const LoadDep &ld : rm.loads) {
            if (ld.cls == LoadClass::LaneForwardable) {
                pred_extra[ld.pc] = p.mem_lane_latency;
                fwd_store[ld.pc] = ld.store_pc;
            } else if (thrashing.count(
                           alignDown(ld.pc, opt.line_bytes))) {
                pred_extra[ld.pc] = p.l1d_hit_latency;
            } else {
                pred_extra[ld.pc] = p.line_buffer_latency;
            }
        }
        Ctx pred_ctx = lb_ctx;
        pred_ctx.load_extra = &pred_extra;
        pred_ctx.min_load_extra = p.line_buffer_latency;
        pred_ctx.fwd_store = &fwd_store;
        // Branchy bodies predict the assumed-taken path: skips and
        // their squash re-steers dominate guard-style kernels, and
        // the resulting late store-address resolve is what feeds the
        // gate recurrence. The *bound* cannot assume either outcome.
        pred_ctx.assume_taken = !r.straightline;
        const PipeModel pred = pipeEmulate(prog, rm.simt_s_pc + 4,
                                           rm.simt_e_pc, r.interval,
                                           rc, pred_ctx);
        r.fill_pred =
            static_cast<double>(pred.fill + p.inter_cluster_latch);
        r.ii_gate = pred.ii_mean;

        if (r.straightline) {
            const PipeModel lb = pipeEmulate(prog, rm.simt_s_pc + 4,
                                             rm.simt_e_pc, r.interval,
                                             rc, lb_ctx);
            r.fill_lb = lb.fill + p.inter_cluster_latch;
            r.ii_lb = lb.ii_min;
        } else {
            // Forward branches can skip arbitrary body suffixes, so
            // only the simt_e execution and line hand-offs are
            // guaranteed per thread, and the launch cadence per
            // steady-state increment.
            r.fill_lb = 1 +
                        (r.lines > 1 ? p.inter_cluster_latch : 0) +
                        p.inter_cluster_latch;
            r.ii_lb = static_cast<double>(r.interval);
        }

        if (report &&
            r.resource_ii / r.max_replicas >
                static_cast<double>(r.interval)) {
            report->add(
                Severity::Note, rm.simt_s_pc, "bound",
                detail::vformat(
                    "thread pipeline is resource-bound: %s gives an "
                    "initiation-interval floor of %.1f cycles/thread "
                    "even at full replication (%u replicas), above "
                    "the launch interval of %u",
                    r.unpip_ii > r.lsu_ii
                        ? "an unpipelined divide/sqrt unit"
                        : "the per-cluster LSU load port",
                    r.resource_ii / r.max_replicas, r.max_replicas,
                    static_cast<unsigned>(r.interval)));
        }
        out.regions.push_back(r);
    }
    return out;
}

std::string
renderBoundJson(const BoundResult &bound)
{
    std::string out = "{\"blocks\": [";
    bool first = true;
    for (const BlockBound &b : bound.blocks) {
        if (!first)
            out += ", ";
        first = false;
        out += detail::vformat(
            "{\"first\": %u, \"last\": %u, \"insts\": %u, "
            "\"crit_lb\": %llu}",
            b.first, b.last, b.insts,
            static_cast<unsigned long long>(b.crit_lb));
    }
    out += "], \"loops\": [";
    first = true;
    for (const LoopBound &l : bound.loops) {
        if (!first)
            out += ", ";
        first = false;
        out += detail::vformat(
            "{\"head\": %u, \"tail\": %u, \"insts\": %u, "
            "\"lines\": %u, \"resident\": %s, \"straightline\": %s, "
            "\"iter_pred\": %.2f}",
            l.head, l.tail, l.insts, l.lines,
            l.resident ? "true" : "false",
            l.straightline ? "true" : "false", l.iter_pred);
    }
    out += "], \"regions\": [";
    first = true;
    for (const RegionBound &r : bound.regions) {
        if (!first)
            out += ", ";
        first = false;
        out += detail::vformat(
            "{\"simt_s\": %u, \"simt_e\": %u, \"body_insts\": %u, "
            "\"lines\": %u, \"max_replicas\": %u, \"interval\": %llu, "
            "\"fill_lb\": %llu, \"fill_pred\": %.2f, "
            "\"ii_lb\": %.2f, \"ii_gate\": %.2f, "
            "\"resource_ii\": %.2f, \"lsu_ii\": %.2f, "
            "\"unpip_ii\": %.2f, \"bank_ii\": %.2f, "
            "\"straightline\": %s}",
            r.simt_s_pc, r.simt_e_pc, r.body_insts, r.lines,
            r.max_replicas,
            static_cast<unsigned long long>(r.interval),
            static_cast<unsigned long long>(r.fill_lb), r.fill_pred,
            r.ii_lb, r.ii_gate, r.resource_ii, r.lsu_ii, r.unpip_ii,
            r.bank_ii, r.straightline ? "true" : "false");
    }
    out += "]}\n";
    return out;
}

} // namespace diag::analysis
