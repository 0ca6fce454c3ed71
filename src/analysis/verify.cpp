#include "analysis/verify.hpp"

#include <algorithm>

#include "analysis/simt_scan.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "isa/decoder.hpp"

namespace diag::analysis
{

using namespace diag::isa;

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Proven: return "proven";
      case Verdict::Refuted: return "refuted";
      case Verdict::Unknown: return "unknown";
    }
    return "?";
}

const char *
propertyName(PropertyKind k)
{
    switch (k) {
      case PropertyKind::ControlSafe: return "control-safe";
      case PropertyKind::NoDivByZero: return "no-div-by-zero";
      case PropertyKind::NoMisaligned: return "no-misaligned";
      case PropertyKind::NoOutOfBounds: return "no-out-of-bounds";
      default: break;
    }
    return "?";
}

const PropertyVerdict &
VerifyResult::prop(PropertyKind k) const
{
    return props[static_cast<size_t>(k)];
}

bool
VerifyResult::clean() const
{
    if (report.errors() > 0)
        return false;
    for (const PropertyVerdict &p : props)
        if (p.verdict == Verdict::Refuted)
            return false;
    for (const RegionVerify &r : regions)
        if (r.race == Verdict::Refuted ||
            r.deadlock == Verdict::Refuted)
            return false;
    return true;
}

namespace
{

/** The program's legal memory footprint: emitted chunks + extras. */
struct RangeMap
{
    std::vector<std::pair<u64, u64>> ranges;  //!< [lo, hi) pairs

    /** Every byte of [lo, hi) lies inside one legal range. */
    bool
    contains(u64 lo, u64 hi) const
    {
        for (const auto &[rlo, rhi] : ranges)
            if (lo >= rlo && hi <= rhi)
                return true;
        return false;
    }

    /** [lo, hi) overlaps no legal range at all. */
    bool
    disjoint(u64 lo, u64 hi) const
    {
        for (const auto &[rlo, rhi] : ranges)
            if (lo < rhi && rlo < hi)
                return false;
        return true;
    }
};

RangeMap
buildMap(const Program &prog, const VerifyOptions &opt)
{
    RangeMap map;
    for (const ProgramChunk &c : prog.chunks)
        map.ranges.emplace_back(c.base,
                                static_cast<u64>(c.base) + c.size);
    for (const auto &[base, size] : opt.extra_ranges)
        map.ranges.emplace_back(base, static_cast<u64>(base) + size);
    return map;
}

/** Accumulates per-site outcomes into one program-scope verdict. */
struct PropAcc
{
    PropertyKind kind;
    unsigned discharged = 0;
    bool unknown = false;
    bool violated = false;
    bool refuted = false;
    Addr pc = 0;
    std::string detail;

    explicit PropAcc(PropertyKind k) : kind(k) {}

    void
    noteUnknown(Addr p, std::string d)
    {
        if (!violated && !unknown) {
            pc = p;
            detail = std::move(d);
        }
        unknown = true;
    }

    void
    noteViolation(Addr p, std::string d, bool must_execute)
    {
        if (!violated) {
            pc = p;
            detail = std::move(d);
        }
        violated = true;
        refuted |= must_execute;
    }

    PropertyVerdict
    finish(std::string proof_detail) const
    {
        PropertyVerdict v;
        v.kind = kind;
        if (refuted) {
            v.verdict = Verdict::Refuted;
            v.pc = pc;
            v.detail = detail;
        } else if (violated || unknown) {
            v.verdict = Verdict::Unknown;
            v.pc = pc;
            v.detail = detail;
        } else {
            v.verdict = Verdict::Proven;
            v.detail = std::move(proof_detail);
        }
        return v;
    }
};

/** Positive remainder of @p a modulo @p m (m > 0). */
i64
posMod(i64 a, i64 m)
{
    const i64 r = a % m;
    return r < 0 ? r + m : r;
}

/** Floor division for i64. */
i64
floorDiv(i64 a, i64 b)
{
    i64 q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        --q;
    return q;
}

/** Cap on per-region thread enumeration for the affine address
 *  collision tests; larger regions verify as Unknown. */
constexpr u64 kMaxThreadsEnumerated = 65536;

/** Resolved simt_s launch parameters (signed 32-bit semantics). */
struct RegionCtx
{
    bool resolved = false;
    bool infinite = false;  //!< zero step that never meets r_end
    i64 rc0 = 0;
    i64 step = 0;
    i64 end = 0;
    u64 n = 0;  //!< executed thread count when resolved && !infinite
};

i64
signedConst(const AbsVal &v)
{
    return static_cast<i64>(static_cast<i32>(v.constVal()));
}

/**
 * Resolve rc/step/end from the abstract register file at simt_s and
 * take the executed thread count from simtTripCount, the count the
 * ring launches (simt_e's do-while: the body always runs once and
 * re-runs while rc+step is short of r_end in the step's direction).
 */
RegionCtx
resolveRegion(const SimtStartFields &f, const AbsRegs &entry)
{
    auto regVal = [&](RegId r, i64 *out) {
        if (r == kNoReg || r == kRegZero) {
            *out = 0;
            return true;
        }
        if (!entry[r].isConst())
            return false;
        *out = signedConst(entry[r]);
        return true;
    };
    RegionCtx ctx;
    if (!regVal(f.rc, &ctx.rc0) || !regVal(f.rStep, &ctx.step) ||
        !regVal(f.rEnd, &ctx.end))
        return ctx;
    const SimtTrips t = simtTripCount(static_cast<u32>(ctx.rc0),
                                      static_cast<u32>(ctx.step),
                                      static_cast<u32>(ctx.end));
    if (ctx.step == 0 && t.capped) {
        ctx.resolved = true;
        ctx.infinite = true;
        return ctx;
    }
    // Reject counts whose rc excursion could wrap 32-bit arithmetic
    // mid-loop, and anything beyond the enumeration cap.
    const i64 final_rc = ctx.rc0 + static_cast<i64>(t.trips) * ctx.step;
    if (t.trips > kMaxThreadsEnumerated || final_rc > 0x7fffffffll ||
        final_rc < -0x80000000ll)
        return ctx;
    ctx.resolved = true;
    ctx.n = t.trips;
    return ctx;
}

/**
 * One region access lowered to an affine per-thread address map:
 * address(i) = K + d*i for thread i in [0, n), where K is either
 * absolute or relative to an unresolved base term shared with other
 * accesses of the same term.
 */
struct AffineAccess
{
    Addr pc = 0;
    bool is_store = false;
    u8 size = 0;
    u32 term = 0;       //!< 0 = absolute; else the unresolved base term
    i64 scale = 1;      //!< the unresolved term's scale
    bool lowered = false;
    i64 k = 0;          //!< address of thread 0 (absolute or relative)
    i64 d = 0;          //!< per-thread stride (rc coefficient * step)
};

/**
 * Lower @p ea against the resolved region context. The base term
 * resolves through the absint entry state as scale * value when it
 * names a register (SymState::seed() gives register r term r) whose
 * value at simt_s is proven constant; otherwise the access stays
 * relative to the (term, scale) pair.
 */
AffineAccess
lowerAccess(Addr pc, const SymVal &ea, u8 size, bool is_store,
            const RegionCtx &ctx, const AbsRegs &entry)
{
    AffineAccess a;
    a.pc = pc;
    a.is_store = is_store;
    a.size = size;
    if (!ctx.resolved || ctx.infinite)
        return a;
    i64 base = 0;
    if (ea.base == 0) {
        a.term = 0;
    } else if (ea.base < kNumRegs &&
               entry[ea.base].isConst()) {
        // scale * value wraps like the 32-bit lane it models.
        const u32 scaled =
            static_cast<u32>(ea.scale) * entry[ea.base].constVal();
        a.term = 0;
        base = scaled;
    } else {
        a.term = ea.base;
        a.scale = ea.scale;
    }
    a.lowered = true;
    a.k = base + ea.off + ea.rc * ctx.rc0;
    a.d = ea.rc * ctx.step;
    return a;
}

/** Byte ranges [a, a+za) and [b, b+zb) overlap. */
bool
bytesOverlap(i64 a, u8 za, i64 b, u8 zb)
{
    return a < b + zb && b < a + za;
}

/**
 * True iff two threads i != j in [0, n) collide: the bytes of s in
 * thread i overlap the bytes of x in thread j. Both accesses must be
 * comparable (same term and scale). O(n) with a solved candidate
 * window per i.
 */
bool
threadsCollide(const AffineAccess &s, const AffineAccess &x, u64 n)
{
    for (u64 i = 0; i < n; ++i) {
        const i64 si = s.k + s.d * static_cast<i64>(i);
        if (x.d == 0) {
            if (bytesOverlap(si, s.size, x.k, x.size) && n >= 2)
                return true;
            continue;
        }
        // x.k + x.d*j must land within (si - x.size, si + s.size):
        // solve both window edges for j and scan the short range.
        const i64 w_lo = si - x.size + 1;
        const i64 w_hi = si + s.size - 1;
        i64 j_a = floorDiv(w_lo - x.k, x.d);
        i64 j_b = floorDiv(w_hi - x.k, x.d) + 1;
        if (j_a > j_b)
            std::swap(j_a, j_b);
        for (i64 j = j_a; j <= j_b + 1; ++j) {
            if (j < 0 || j >= static_cast<i64>(n) ||
                j == static_cast<i64>(i))
                continue;
            if (bytesOverlap(si, s.size, x.k + x.d * j, x.size))
                return true;
        }
    }
    return false;
}

} // namespace

VerifyResult
verifyProgram(const Program &prog, const VerifyOptions &opt)
{
    VerifyResult out;

    LintResult structural;
    const Cfg cfg = buildCfg(prog, structural);
    LintResult md_report;
    const MemDepResult md =
        checkMemDep(cfg, prog, opt.lint, md_report);
    const AbsIntResult ai = runAbsInt(cfg);
    out.aborted = !ai.converged;
    const RangeMap map = buildMap(prog, opt);

    // Pipelinable region spans: their memory sites are judged by the
    // affine per-thread path below, not the scalar per-site path.
    std::vector<std::pair<Addr, Addr>> spans;
    for (const RegionMemDep &r : md.regions)
        spans.emplace_back(r.simt_s_pc + 4, r.simt_e_pc);
    const auto inRegion = [&](Addr pc) {
        for (const auto &[lo, hi] : spans)
            if (pc >= lo && pc <= hi)
                return true;
        return false;
    };

    PropAcc control(PropertyKind::ControlSafe);
    PropAcc div0(PropertyKind::NoDivByZero);
    PropAcc align(PropertyKind::NoMisaligned);
    PropAcc bounds(PropertyKind::NoOutOfBounds);

    // ---- control safety ----
    if (structural.errors() > 0) {
        Addr first_pc = 0;
        for (const Diagnostic &d : structural.diags)
            if (d.severity == Severity::Error) {
                first_pc = d.pc;
                break;
            }
        control.noteViolation(
            first_pc,
            detail::vformat("%u structural control-flow error(s); "
                            "execution can trap or leave the image "
                            "(run diag-lint for the full list)",
                            structural.errors()),
            /*must_execute=*/false);
        out.report.add(Severity::Error, first_pc, "verify",
                       control.detail);
    } else {
        for (const BasicBlock &bb : cfg.blocks)
            if (bb.unknown_succ) {
                control.noteUnknown(
                    bb.last,
                    detail::vformat(
                        "indirect jump at 0x%08x: the target set is "
                        "not statically resolved",
                        bb.last));
            }
    }

    // ---- scalar sites: divide-by-zero, alignment, bounds ----
    for (const auto &[pc, site] : ai.sites) {
        if (site.is_div) {
            ++div0.discharged;
            if (site.divisor.excludes(0))
                continue;
            if (site.divisor.isConst() &&
                site.divisor.constVal() == 0) {
                const std::string msg = detail::vformat(
                    "proven divide-by-zero at 0x%08x: the divisor is "
                    "0 on every execution reaching it (RV32M defines "
                    "the result, but no meaningful quotient exists)",
                    pc);
                div0.noteViolation(pc, msg, site.must_execute);
                out.report.add(Severity::Error, pc, "verify", msg);
            } else {
                div0.noteUnknown(
                    pc, detail::vformat(
                            "divisor at 0x%08x not proven nonzero",
                            pc));
            }
            continue;
        }
        if (!site.is_mem || inRegion(pc))
            continue;

        // alignment
        ++align.discharged;
        if (site.mem_bytes > 1) {
            const int rem = site.addr.remainder(site.mem_bytes);
            if (rem < 0) {
                align.noteUnknown(
                    pc,
                    detail::vformat("address alignment at 0x%08x not "
                                    "statically known",
                                    pc));
            } else if (rem != 0) {
                const std::string msg = detail::vformat(
                    "proven misaligned access at 0x%08x: the address "
                    "is %d (mod %u) on every execution reaching it",
                    pc, rem, site.mem_bytes);
                align.noteViolation(pc, msg, site.must_execute);
                out.report.add(Severity::Error, pc, "verify", msg);
            }
        }

        // bounds
        ++bounds.discharged;
        const u64 flo = site.addr.lo;
        const u64 fhi = site.addr.hi + site.mem_bytes;
        if (map.contains(flo, fhi))
            continue;
        if (map.disjoint(flo, fhi)) {
            const std::string msg = detail::vformat(
                "proven out-of-bounds access at 0x%08x: "
                "[0x%08llx, 0x%08llx) lies outside the program's "
                "data map",
                pc, static_cast<unsigned long long>(flo),
                static_cast<unsigned long long>(fhi));
            bounds.noteViolation(pc, msg, site.must_execute);
            out.report.add(Severity::Error, pc, "verify", msg);
        } else {
            bounds.noteUnknown(
                pc, detail::vformat(
                        "address range at 0x%08x not proven inside "
                        "the data map",
                        pc));
        }
    }

    // ---- pipelinable regions: affine per-thread analysis ----
    for (const RegionMemDep &rd : md.regions) {
        RegionVerify rv;
        rv.simt_s_pc = rd.simt_s_pc;
        rv.simt_e_pc = rd.simt_e_pc;

        const DecodedInst start = decode(prog.word(rd.simt_s_pc));
        const SimtStartFields f = simtStartFields(start);
        const auto entry_it = ai.simt_entry.find(rd.simt_s_pc);
        static const AbsRegs kTopRegs = [] {
            AbsRegs r;
            r.fill(AbsVal::top());
            r[kRegZero] = AbsVal::constant(0);
            return r;
        }();
        const AbsRegs &entry = entry_it != ai.simt_entry.end()
                                   ? entry_it->second
                                   : kTopRegs;
        const RegionCtx ctx = resolveRegion(f, entry);

        const unsigned body_insts = static_cast<unsigned>(
            (rd.simt_e_pc - rd.simt_s_pc) / 4);
        const unsigned interval =
            std::max(1u, simtStartFields(start).interval);
        rv.capacity =
            opt.lint.clusters_per_ring * (opt.lint.line_bytes / 4);

        // Deadlock freedom / token conservation. The proof needs the
        // launch triple constant and un-redefined inside the body.
        bool body_writes_ctl = false;
        for (Addr pc = rd.simt_s_pc + 4; pc < rd.simt_e_pc; pc += 4) {
            const auto it = cfg.insts.find(pc);
            if (it == cfg.insts.end())
                continue;
            const RegId rd_reg = it->second.rd;
            if (rd_reg != kNoReg &&
                (rd_reg == f.rc || rd_reg == f.rStep ||
                 rd_reg == f.rEnd)) {
                body_writes_ctl = true;
                break;
            }
        }
        if (body_writes_ctl) {
            rv.deadlock = Verdict::Unknown;
            rv.deadlock_detail =
                "the body redefines a simt control register";
        } else if (!ctx.resolved) {
            rv.deadlock = Verdict::Unknown;
            rv.deadlock_detail = "rc/r_step/r_end not resolved to "
                                 "constants at simt_s";
        } else if (ctx.infinite) {
            rv.deadlock = Verdict::Refuted;
            rv.deadlock_detail = detail::vformat(
                "proven livelock: step is 0 with rc (%lld) < r_end "
                "(%lld), so the simt_e at 0x%08x redirects forever",
                static_cast<long long>(ctx.rc0),
                static_cast<long long>(ctx.end), rd.simt_e_pc);
            out.report.add(
                Severity::Error, rd.simt_s_pc, "verify",
                detail::vformat("simt region at 0x%08x: %s",
                                rd.simt_s_pc,
                                rv.deadlock_detail.c_str()));
        } else {
            rv.deadlock = Verdict::Proven;
            rv.threads = ctx.n;
            rv.inflight_bound = static_cast<unsigned>(std::min<u64>(
                ctx.n, body_insts / interval + 1));
            rv.deadlock_detail = detail::vformat(
                "%llu thread(s) launch and retire (token "
                "conservation); <= %u in flight vs lane-buffer "
                "capacity %u",
                static_cast<unsigned long long>(ctx.n),
                rv.inflight_bound, rv.capacity);
            out.report.add(
                Severity::Note, rd.simt_s_pc, "verify",
                detail::vformat(
                    "simt region at 0x%08x: deadlock-freedom proven: "
                    "%s",
                    rd.simt_s_pc, rv.deadlock_detail.c_str()));
        }

        // Race freedom.
        if (rd.carried_race) {
            rv.race = Verdict::Refuted;
            rv.race_detail =
                "definite cross-iteration store-to-load race "
                "(see the memdep error)";
            out.report.add(
                Severity::Error, rd.simt_s_pc, "verify",
                detail::vformat(
                    "proven cross-thread race in the simt region at "
                    "0x%08x: a store and a load hit the same fixed "
                    "address in different pipelined threads",
                    rd.simt_s_pc));
        } else if (!ctx.resolved || ctx.infinite) {
            rv.race = Verdict::Unknown;
            rv.race_detail = "thread count / step not statically "
                             "resolved";
        } else if (ctx.n <= 1) {
            rv.race = Verdict::Proven;
            rv.race_detail = "single thread: no cross-thread "
                             "interleaving";
        } else {
            std::vector<AffineAccess> accs;
            auto memBytesAt = [&](Addr pc) -> u8 {
                const auto it = cfg.insts.find(pc);
                return it == cfg.insts.end()
                           ? 4
                           : it->second.info().memBytes;
            };
            for (const StoreRef &s : rd.stores)
                accs.push_back(lowerAccess(s.pc, s.ea,
                                           memBytesAt(s.pc), true,
                                           ctx, entry));
            for (const LoadDep &l : rd.loads)
                accs.push_back(lowerAccess(l.pc, l.ea,
                                           memBytesAt(l.pc), false,
                                           ctx, entry));
            bool unknown_pair = false;
            Addr race_store = 0, race_access = 0;
            bool definite_race = false;
            for (const AffineAccess &s : accs) {
                if (!s.is_store)
                    continue;
                for (const AffineAccess &x : accs) {
                    if (x.is_store && x.pc < s.pc)
                        continue;  // each store pair once
                    if (!s.lowered || !x.lowered ||
                        s.term != x.term || s.scale != x.scale) {
                        unknown_pair = true;
                        continue;
                    }
                    if (!threadsCollide(s, x, ctx.n)) {
                        ++rv.pairs_proven;
                        continue;
                    }
                    if (!x.is_store) {
                        // A store in one thread reaches a load in
                        // another: definite nondeterminism.
                        definite_race = true;
                        race_store = s.pc;
                        race_access = x.pc;
                    } else {
                        // Colliding stores: racy only if the stored
                        // values can differ, which we do not track.
                        unknown_pair = true;
                    }
                }
            }
            if (definite_race) {
                rv.race = Verdict::Refuted;
                rv.race_detail = detail::vformat(
                    "proven cross-thread race: the store at 0x%08x "
                    "and the load at 0x%08x collide in different "
                    "threads",
                    race_store, race_access);
                out.report.add(
                    Severity::Error, race_access, "verify",
                    detail::vformat(
                        "proven cross-thread race in the simt region "
                        "at 0x%08x: the store at 0x%08x and this "
                        "load touch the same bytes in different "
                        "pipelined threads; the value read depends "
                        "on thread timing",
                        rd.simt_s_pc, race_store));
            } else if (unknown_pair) {
                rv.race = Verdict::Unknown;
                rv.race_detail = "an access pair could not be "
                                 "compared statically";
            } else {
                rv.race = Verdict::Proven;
                rv.race_detail = detail::vformat(
                    "%u access pair(s) proven disjoint across %llu "
                    "threads",
                    rv.pairs_proven,
                    static_cast<unsigned long long>(ctx.n));
                out.report.add(
                    Severity::Note, rd.simt_s_pc, "verify",
                    detail::vformat(
                        "simt region at 0x%08x: cross-thread race "
                        "freedom proven: %s",
                        rd.simt_s_pc, rv.race_detail.c_str()));
            }

            // Affine in-bounds / alignment for the region's accesses.
            for (const AffineAccess &a : accs) {
                if (!a.lowered || a.term != 0)
                    continue;
                ++align.discharged;
                ++bounds.discharged;
                const bool must =
                    ai.sites.count(a.pc) != 0 &&
                    ai.sites.at(a.pc).must_execute;
                if (a.size > 1) {
                    const i64 k_rem = posMod(a.k, a.size);
                    const i64 d_rem = posMod(a.d, a.size);
                    if (d_rem == 0 && k_rem != 0) {
                        const std::string msg = detail::vformat(
                            "proven misaligned access at 0x%08x: "
                            "every thread's address is %lld (mod "
                            "%u)",
                            a.pc, static_cast<long long>(k_rem),
                            a.size);
                        align.noteViolation(a.pc, msg, must);
                        out.report.add(Severity::Error, a.pc,
                                       "verify", msg);
                    } else if (d_rem != 0) {
                        align.noteUnknown(
                            a.pc,
                            detail::vformat(
                                "per-thread stride at 0x%08x not a "
                                "multiple of the access size",
                                a.pc));
                    }
                }
                const i64 first = a.k;
                const i64 last =
                    a.k + a.d * static_cast<i64>(ctx.n - 1);
                const i64 f_lo = std::min(first, last);
                const i64 f_hi = std::max(first, last) + a.size;
                if (f_lo < 0 || f_hi > 0x100000000ll) {
                    bounds.noteUnknown(
                        a.pc, detail::vformat("thread address range "
                                              "at 0x%08x overflows "
                                              "32 bits",
                                              a.pc));
                } else if (map.contains(static_cast<u64>(f_lo),
                                        static_cast<u64>(f_hi))) {
                    // in bounds
                } else if (map.disjoint(static_cast<u64>(f_lo),
                                        static_cast<u64>(f_hi))) {
                    const std::string msg = detail::vformat(
                        "proven out-of-bounds access at 0x%08x: the "
                        "thread address range [0x%08llx, 0x%08llx) "
                        "lies outside the program's data map",
                        a.pc, static_cast<unsigned long long>(f_lo),
                        static_cast<unsigned long long>(f_hi));
                    bounds.noteViolation(a.pc, msg, must);
                    out.report.add(Severity::Error, a.pc, "verify",
                                   msg);
                } else {
                    bounds.noteUnknown(
                        a.pc, detail::vformat(
                                  "thread address range at 0x%08x "
                                  "not proven inside the data map",
                                  a.pc));
                }
            }
        }
        if (rv.race != Verdict::Proven && rv.race != Verdict::Refuted)
            // Unlowered region accesses were never bounds-checked.
            for (const StoreRef &s : rd.stores)
                bounds.noteUnknown(
                    s.pc, detail::vformat("region access at 0x%08x "
                                          "not statically lowered",
                                          s.pc));

        out.regions.push_back(std::move(rv));
    }
    std::sort(out.regions.begin(), out.regions.end(),
              [](const RegionVerify &a, const RegionVerify &b) {
                  return a.simt_s_pc < b.simt_s_pc;
              });

    if (out.aborted) {
        const char *why = "abstract interpretation hit its iteration "
                          "cap; values degraded to top";
        control.noteUnknown(0, why);
        div0.noteUnknown(0, why);
        align.noteUnknown(0, why);
        bounds.noteUnknown(0, why);
    }

    out.props.push_back(control.finish(
        "every reachable control transfer targets decoded code in "
        "the image"));
    out.props.push_back(div0.finish(detail::vformat(
        "%u divide site(s) discharged: divisor proven nonzero",
        div0.discharged)));
    out.props.push_back(align.finish(detail::vformat(
        "%u access(es) discharged: address alignment proven",
        align.discharged)));
    out.props.push_back(bounds.finish(detail::vformat(
        "%u access(es) discharged: footprint inside the data map",
        bounds.discharged)));
    out.report.finalize();
    return out;
}

std::string
renderVerifyText(const VerifyResult &r)
{
    std::string out;
    for (const PropertyVerdict &p : r.props) {
        out += detail::vformat("property %-16s %s",
                               propertyName(p.kind),
                               verdictName(p.verdict));
        if (!p.detail.empty())
            out += " — " + p.detail;
        out += "\n";
    }
    for (const RegionVerify &v : r.regions) {
        out += detail::vformat(
            "region 0x%08x..0x%08x: race-freedom %s (%s); "
            "deadlock-freedom %s (%s)\n",
            v.simt_s_pc, v.simt_e_pc, verdictName(v.race),
            v.race_detail.c_str(), verdictName(v.deadlock),
            v.deadlock_detail.c_str());
    }
    out += renderText(r.report);
    return out;
}

std::string
renderVerifyJson(const VerifyResult &r)
{
    std::string out = "{\n\"properties\": {";
    bool first = true;
    for (const PropertyVerdict &p : r.props) {
        if (!first)
            out += ",";
        first = false;
        out += detail::vformat(
            "\n  \"%s\": {\"verdict\": \"%s\", \"pc\": %u, "
            "\"detail\": \"%s\"}",
            propertyName(p.kind), verdictName(p.verdict), p.pc,
            jsonEscape(p.detail).c_str());
    }
    out += "\n},\n\"regions\": [";
    first = true;
    for (const RegionVerify &v : r.regions) {
        if (!first)
            out += ",";
        first = false;
        out += detail::vformat(
            "\n  {\"simt_s\": %u, \"simt_e\": %u, \"race\": \"%s\", "
            "\"race_detail\": \"%s\", \"deadlock\": \"%s\", "
            "\"deadlock_detail\": \"%s\", \"threads\": %llu, "
            "\"inflight_bound\": %u, \"capacity\": %u, "
            "\"pairs_proven\": %u}",
            v.simt_s_pc, v.simt_e_pc, verdictName(v.race),
            jsonEscape(v.race_detail).c_str(),
            verdictName(v.deadlock),
            jsonEscape(v.deadlock_detail).c_str(),
            static_cast<unsigned long long>(v.threads),
            v.inflight_bound, v.capacity, v.pairs_proven);
    }
    out += detail::vformat("\n],\n\"aborted\": %s,\n\"findings\": %s\n}",
                           r.aborted ? "true" : "false",
                           renderJson(r.report).c_str());
    return out;
}

} // namespace diag::analysis
