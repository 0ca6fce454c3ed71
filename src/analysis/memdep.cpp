#include "analysis/memdep.hpp"

#include <algorithm>
#include <deque>

#include "analysis/lint.hpp"
#include "analysis/simt_scan.hpp"
#include "common/log.hpp"
#include "isa/decoder.hpp"

namespace diag::analysis
{

using namespace diag::isa;

const char *
loadClassName(LoadClass c)
{
    switch (c) {
      case LoadClass::UnknownAlias: return "unknown-alias";
      case LoadClass::LaneForwardable: return "lane-forwardable";
      case LoadClass::LsuSerialized: return "lsu-serialized";
    }
    return "?";
}

namespace
{

/** Byte-range relation of a load against one store (same base). */
enum class Overlap
{
    Disjoint,
    Covered,   //!< the store covers every byte the load reads
    Partial,
};

Overlap
classifyOverlap(const SymVal &load_ea, u8 load_size,
                const SymVal &store_ea, u8 store_size)
{
    const i64 delta = load_ea.off - store_ea.off;
    if (delta >= store_size || delta + load_size <= 0)
        return Overlap::Disjoint;
    if (delta >= 0 && delta + load_size <= store_size)
        return Overlap::Covered;
    return Overlap::Partial;
}

/** Human description of an address expression for diagnostics. */
std::string
describeAddr(const Program &prog, const SymVal &e)
{
    if (e.base == 0 && e.rc == 0)
        return prog.nearestSymbol(static_cast<Addr>(e.off));
    if (e.rc != 0)
        return detail::vformat("base+%lld*rc%+lld",
                               static_cast<long long>(e.rc),
                               static_cast<long long>(e.off));
    return detail::vformat("base%+lld", static_cast<long long>(e.off));
}

/**
 * Straight-line scope: classify each load in @p body against the
 * sliding window of older stores, modelling the memory-lane CAM
 * (youngest fully-covering match forwards; a partial overlap blocks
 * forwarding; an opaque store leaves the query undecidable).
 */
void
classifyLoads(const std::vector<MemAccess> &body, unsigned cam_entries,
              const Program &prog, bool emit, MemDepResult &out,
              LintResult &report)
{
    std::deque<const MemAccess *> window;
    for (const MemAccess &m : body) {
        if (m.is_store) {
            window.push_back(&m);
            if (window.size() > cam_entries)
                window.pop_front();
            continue;
        }
        LoadDep dep;
        dep.pc = m.pc;
        dep.ea = m.ea;
        for (auto it = window.rbegin(); it != window.rend(); ++it) {
            const MemAccess &s = **it;
            if (!m.ea.sameBase(s.ea) || m.ea.rc != s.ea.rc) {
                // Undecidable pair: the CAM may or may not match at
                // run time, so no younger decision is provable.
                dep.cls = LoadClass::UnknownAlias;
                dep.store_pc = s.pc;
                break;
            }
            const Overlap ov =
                classifyOverlap(m.ea, m.size, s.ea, s.size);
            if (ov == Overlap::Disjoint)
                continue;
            dep.store_pc = s.pc;
            if (ov == Overlap::Covered) {
                dep.cls = LoadClass::LaneForwardable;
                if (emit)
                    report.add(
                        Severity::Note, m.pc, "memdep",
                        detail::vformat(
                            "load forwards from the store at 0x%08x "
                            "through the memory lanes "
                            "(store-to-load hit on %s)",
                            s.pc, describeAddr(prog, m.ea).c_str()));
            } else {
                dep.cls = LoadClass::LsuSerialized;
                if (emit)
                    report.add(
                        Severity::Note, m.pc, "memdep",
                        detail::vformat(
                            "load overlaps the %u-byte store at "
                            "0x%08x only partially: the memory lanes "
                            "cannot forward a partial value, so the "
                            "load serializes through the LSU behind "
                            "the store",
                            s.size, s.pc));
            }
            break;
        }
        out.loads.push_back(dep);
    }
}

/**
 * Region scope: pairwise store->load dependence tests under the
 * per-iteration address map `scale*term + rc*i + off`, where rc takes a
 * different value in every pipelined thread.
 */
void
analyzeRegion(const Program &prog, const LintOptions &opt,
              Addr simt_s_pc, const SimtScan &scan,
              MemDepResult &out, LintResult &report)
{
    const DecodedInst start = decode(prog.word(simt_s_pc));
    const SimtStartFields f = simtStartFields(start);

    SymState st;
    st.seed();
    // The loop-control lane is the region's induction variable.
    if (f.rc != kRegZero && f.rc != kNoReg)
        st.reg[f.rc] = {0, 1, 1, 0, 0};

    RegionMemDep region;
    region.simt_s_pc = simt_s_pc;
    region.simt_e_pc = scan.simt_e_pc;

    const std::vector<MemAccess> body =
        walkRange(st, prog, simt_s_pc + 4, scan.simt_e_pc);
    for (const MemAccess &m : body) {
        if (m.is_store) {
            ++region.stores_per_iter;
            region.stores.push_back({m.pc, m.ea});
        } else {
            ++region.loads_per_iter;
        }
    }

    // Same-iteration classification (the per-thread CAM view).
    classifyLoads(body, opt.timing.mem_lane_entries, prog,
                  /*emit=*/true, out, report);
    region.loads.assign(out.loads.end() - region.loads_per_iter,
                        out.loads.end());
    out.loads.resize(out.loads.size() - region.loads_per_iter);

    // Cross-iteration store->load tests.
    for (const MemAccess &s : body) {
        if (!s.is_store)
            continue;
        for (const MemAccess &l : body) {
            if (l.is_store || !l.ea.sameBase(s.ea))
                continue;
            if (l.ea.rc == 0 && s.ea.rc == 0) {
                // Both accesses hit the same fixed address in every
                // iteration: a definite pipelined-thread race.
                if (classifyOverlap(l.ea, l.size, s.ea, s.size) ==
                    Overlap::Disjoint)
                    continue;
                region.carried_race = true;
                report.add(
                    Severity::Error, l.pc, "memdep",
                    detail::vformat(
                        "cross-iteration store-to-load race in the "
                        "simt region at 0x%08x: the store at 0x%08x "
                        "and this load address %s in every iteration, "
                        "but pipelined threads snapshot the lanes at "
                        "simt_s and interleave their memory accesses "
                        "freely, so the value read depends on thread "
                        "timing; rewrite the reduction with a "
                        "per-iteration address or drop the simt "
                        "markers",
                        simt_s_pc, s.pc,
                        describeAddr(prog, l.ea).c_str()));
            } else if (l.ea.rc != s.ea.rc ||
                       (l.ea.off != s.ea.off &&
                        classifyOverlap(l.ea, l.size, s.ea, s.size) ==
                            Overlap::Disjoint)) {
                // Same base, different stride or a non-overlapping
                // offset gap: whether two *different* iterations
                // collide depends on the step value, which is only
                // known at run time.
                if (l.ea.rc == s.ea.rc)
                    continue;  // equal stride, disjoint offsets: the
                               // gap is constant across iterations
                report.add(
                    Severity::Warning, l.pc, "memdep",
                    detail::vformat(
                        "store at 0x%08x (stride %lld per iteration) "
                        "and this load (stride %lld) share a base "
                        "address: iterations may alias depending on "
                        "the simt step value, and pipelined threads "
                        "give no cross-iteration memory ordering",
                        s.pc,
                        static_cast<long long>(s.ea.rc),
                        static_cast<long long>(l.ea.rc)));
            }
        }
    }

    // Memory-lane CAM pressure: the lanes are shared by every thread
    // in flight, so each iteration's stores occupy entries for about
    // one pipeline-fill worth of threads.
    const unsigned body_insts =
        static_cast<unsigned>((scan.simt_e_pc - simt_s_pc) / 4);
    const unsigned interval = std::max(1u, scan.fields.interval);
    const unsigned inflight = body_insts / interval + 1;
    region.cam_demand = region.stores_per_iter * inflight;
    if (region.stores_per_iter > 0 &&
        region.cam_demand > opt.timing.mem_lane_entries) {
        report.add(
            Severity::Note, simt_s_pc, "memdep",
            detail::vformat(
                "memory-lane pressure: %u store(s)/iteration with "
                "~%u threads in flight demands ~%u CAM entries but "
                "the lanes hold %u; store-to-load forwarding hits "
                "will be lost to capacity evictions",
                region.stores_per_iter, inflight, region.cam_demand,
                opt.timing.mem_lane_entries));
    }

    out.regions.push_back(std::move(region));
}

} // namespace

MemDepResult
checkMemDep(const Cfg &cfg, const Program &prog,
            const LintOptions &opt, LintResult &report)
{
    MemDepResult out;

    // Pipelinable regions get the cross-iteration treatment; their
    // span is excluded from the straight-line pass below so each load
    // is classified exactly once.
    std::vector<std::pair<Addr, Addr>> region_spans;
    if (opt.simt_enabled) {
        for (const auto &[pc, di] : cfg.insts) {
            if (di.op != Op::SIMT_S)
                continue;
            const SimtScan scan = scanSimtRegion(
                pc, prog.image, opt.line_bytes, opt.clusters_per_ring);
            if (!scan.ok())
                continue;  // serializes: the block pass covers it
            region_spans.emplace_back(pc + 4, scan.simt_e_pc);
            analyzeRegion(prog, opt, pc, scan, out, report);
        }
    }
    auto in_region = [&](Addr pc) {
        for (const auto &[lo, hi] : region_spans)
            if (pc >= lo && pc <= hi)
                return true;
        return false;
    };

    SymState st;
    for (const BasicBlock &bb : cfg.blocks) {
        if (in_region(bb.first))
            continue;
        // Lanes carry unknown values at block entry: reseed so no
        // expression leaks across a control-flow join.
        st.seed();
        classifyLoads(walkRange(st, prog, bb.first, bb.last),
                      opt.timing.mem_lane_entries, prog,
                      /*emit=*/true, out, report);
    }
    return out;
}

} // namespace diag::analysis
