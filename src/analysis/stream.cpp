#include "analysis/stream.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/absint.hpp"
#include "analysis/lint.hpp"
#include "analysis/simt_scan.hpp"
#include "analysis/symval.hpp"
#include "common/log.hpp"
#include "isa/decoder.hpp"

namespace diag::analysis
{

using namespace diag::isa;

const char *
streamKindName(StreamKind k)
{
    switch (k) {
      case StreamKind::Affine: return "affine";
      case StreamKind::Indirect: return "indirect";
      case StreamKind::PointerChase: return "pointer-chase";
      case StreamKind::Unknown: return "unknown";
    }
    return "?";
}

const char *
prefetchClassName(PrefetchClass p)
{
    switch (p) {
      case PrefetchClass::None: return "none";
      case PrefetchClass::Scalar: return "scalar";
      case PrefetchClass::Stride: return "stride";
      case PrefetchClass::Index: return "index";
    }
    return "?";
}

namespace
{

/**
 * Classify one access's address value against the lattice. @p kinds
 * maps already-classified load pcs (program order guarantees a feeder
 * load precedes its consumers); @p chase_seeds holds seed terms of
 * loop-carried chase pointers (empty for simt regions, whose scan
 * forbids loop-carried register dependences).
 */
StreamKind
classify(const SymState &st, const SymVal &ea,
         const std::set<u32> &chase_seeds,
         const std::map<Addr, StreamKind> &kinds, Addr *feeder_out)
{
    if (ea.base != 0 && chase_seeds.count(st.chainRoot(ea.base))) {
        *feeder_out = st.feederOf(ea);
        return StreamKind::PointerChase;
    }
    const unsigned d = st.depthOf(ea);
    if (ea.base == 0 || (d == 0 && st.meta[ea.base].invariant))
        return StreamKind::Affine;
    *feeder_out = st.feederOf(ea);
    if (d >= 2)
        return StreamKind::PointerChase;
    if (d == 1) {
        const auto it = kinds.find(st.feederOf(ea));
        if (it != kinds.end() && it->second == StreamKind::Affine)
            return StreamKind::Indirect;
    }
    return StreamKind::Unknown;
}

/**
 * Build the full StreamInfo for @p ra. @p step_known/@p step describe
 * the scope's induction advance (the proven simt step, or 1 for a
 * serial loop's iteration counter); @p by_pc holds the streams built
 * so far (feeder lookup for the Index prefetch class).
 */
StreamInfo
makeStream(const SymState &st, const MemAccess &ra, bool step_known,
           i64 step, bool trips_known, u64 trips,
           const LintOptions &opt, const std::set<u32> &chase_seeds,
           const std::map<Addr, StreamKind> &kinds,
           const std::map<Addr, StreamInfo> &by_pc)
{
    StreamInfo si;
    si.pc = ra.pc;
    si.is_store = ra.is_store;
    si.size = ra.size;
    si.kind = classify(st, ra.ea, chase_seeds, kinds, &si.feeder_pc);
    if (si.kind != StreamKind::Affine) {
        if (si.kind == StreamKind::Indirect) {
            const auto it = by_pc.find(si.feeder_pc);
            if (it != by_pc.end() && it->second.stride_known &&
                it->second.stride != 0)
                si.prefetch = PrefetchClass::Index;
        }
        return si;
    }

    si.rc_coeff = ra.ea.rc;
    si.tid_coeff = ra.ea.tid;
    si.stride_known = ra.ea.rc == 0 || step_known;
    si.stride = si.stride_known ? ra.ea.rc * step : 0;
    if (!si.stride_known)
        return si;
    si.prefetch =
        si.stride == 0 ? PrefetchClass::Scalar : PrefetchClass::Stride;

    // Bank verdicts under the cache model's word-interleaved mapping
    // `bank = (addr/8) & (banks-1)`: accesses k apart in the stream
    // land on word indices differing by k*s/8 or k*s/8+1 (the latter
    // only when k*s % 8 != 0, depending on the base alignment). A
    // conflict needs a *different* word on the *same* bank while both
    // accesses hold the bank; the pipeline launches accesses of one
    // stream at least a cycle apart and a bank is held for
    // l1d_bank_occupancy cycles, so only distances k < occupancy + 1
    // can overlap in flight. The stream is proven conflict-free when
    // no distance in that window yields a word delta that is a
    // nonzero multiple of the bank count — for any base alignment.
    // (The bank pattern of k*s repeats with period ≤ 8*banks, so two
    // full periods bound the scan for any occupancy.)
    const u64 banks = opt.timing.l1d_banks;
    const u64 s =
        static_cast<u64>(si.stride < 0 ? -si.stride : si.stride);
    if (banks > 0) {
        if (s == 0) {
            si.bank_conflict_free = true;
        } else {
            const u64 window = std::min<u64>(
                std::max<Cycle>(1, opt.timing.l1d_bank_occupancy),
                16 * banks);
            bool conflict = false;
            for (u64 k = 1; k <= window && !conflict; ++k) {
                const u64 d0 = k * s / 8;
                const u64 rem = k * s % 8;
                conflict = (d0 > 0 && d0 % banks == 0) ||
                           (rem != 0 && (d0 + 1) % banks == 0);
            }
            si.bank_conflict_free = !conflict;
            si.bank_serialized =
                s % 8 == 0 && s / 8 > 0 && (s / 8) % banks == 0;
        }
    }

    // Footprint / reuse estimates need the trip count too.
    if (trips_known && trips > 0) {
        const u64 line = std::max(1u, opt.timing.l1d_line_bytes);
        if (s == 0) {
            si.footprint_bytes = ra.size;
            si.lines_touched = 1;
        } else {
            const u64 span = s * (trips - 1) + ra.size;
            si.footprint_bytes = std::min(trips * ra.size, span);
            si.lines_touched = span / line + 1;
        }
        si.reuse_per_line = static_cast<double>(trips) /
                            static_cast<double>(si.lines_touched);
        si.footprint_known = true;
    }
    return si;
}

/** Per-stream diagnostics shared by the region and loop scopes. */
void
emitStreamDiags(const StreamInfo &si, bool in_region,
                const LintOptions &opt, LintResult &report)
{
    switch (si.kind) {
      case StreamKind::PointerChase:
        report.add(Severity::Note, si.pc, "stream",
                   detail::vformat(
                       "pointer-chase stream via the load at 0x%08x: "
                       "each address depends on the previous load's "
                       "data, so no prefetcher can run ahead",
                       si.feeder_pc));
        break;
      case StreamKind::Indirect:
        report.add(Severity::Note, si.pc, "stream",
                   detail::vformat(
                       "indirect stream: %s indexed by the affine "
                       "load stream at 0x%08x%s",
                       si.is_store ? "scatter" : "gather",
                       si.feeder_pc,
                       si.prefetch == PrefetchClass::Index
                           ? " (index-prefetchable)"
                           : ""));
        break;
      case StreamKind::Unknown:
        if (in_region)
            report.add(Severity::Note, si.pc, "stream",
                       "unclassified address stream: the base value "
                       "is computed in-region by an operation outside "
                       "the address algebra");
        break;
      case StreamKind::Affine:
        if (si.bank_serialized)
            report.add(
                Severity::Warning, si.pc, "stream",
                detail::vformat(
                    "affine stream with stride %lld lands every "
                    "access on a single one of %u L1D banks "
                    "(8-byte interleave): concurrent accesses "
                    "serialize at %llu cycle(s) of bank occupancy "
                    "each",
                    static_cast<long long>(si.stride),
                    opt.timing.l1d_banks,
                    static_cast<unsigned long long>(
                        opt.timing.l1d_bank_occupancy)));
        break;
    }
}

/** Analyze one pipelinable simt region. */
void
analyzeRegion(const Program &prog, const LintOptions &opt,
              Addr simt_s_pc, const SimtScan &scan,
              const AbsIntResult &ai, StreamResult &out,
              LintResult &report)
{
    RegionStreams rs;
    rs.simt_s_pc = simt_s_pc;
    rs.simt_e_pc = scan.simt_e_pc;

    // Resolve simt_s operands in the abstract entry state. Values are
    // signed 32-bit by the region's do-while semantics.
    i64 rc0 = 0;
    i64 end = 0;
    bool rc0_known = false;
    bool end_known = false;
    const auto ae = ai.simt_entry.find(simt_s_pc);
    if (ae != ai.simt_entry.end()) {
        const auto cst = [&](RegId r, i64 *v) {
            if (r == kRegZero) {
                *v = 0;
                return true;
            }
            if (r == kNoReg)
                return false;
            const AbsVal &av = ae->second[r];
            if (!av.isConst())
                return false;
            *v = static_cast<i64>(
                static_cast<i32>(av.constVal()));
            return true;
        };
        rs.step_known = cst(scan.fields.rStep, &rs.step);
        rc0_known = cst(scan.fields.rc, &rc0);
        end_known = cst(scan.fields.rEnd, &end);
    }
    if (rs.step_known && rc0_known && end_known) {
        // The same trip count the ring's thread pipeline launches.
        rs.trips_known = true;
        rs.trips = simtTripCount(static_cast<u32>(rc0),
                                 static_cast<u32>(rs.step),
                                 static_cast<u32>(end))
                       .trips;
    }

    for (Addr pc = simt_s_pc + 4; pc < scan.simt_e_pc; pc += 4) {
        const DecodedInst di = decode(prog.word(pc));
        if (di.isBranch() || di.isJump())
            rs.straightline = false;
    }

    SymState st;
    st.seed();
    // a0 is the launch frame's thread-id lane; its coefficient is the
    // region's tid*tstride axis (constant within one region entry, so
    // the per-i validation below is unaffected even if the kernel
    // repurposed the register).
    st.reg[10] = {0, 1, 0, 1, 0};
    // The loop-control lane is the region's induction variable.
    if (scan.fields.rc != kRegZero && scan.fields.rc != kNoReg)
        st.reg[scan.fields.rc] = {0, 1, 1, 0, 0};

    const std::vector<MemAccess> body =
        walkRange(st, prog, simt_s_pc + 4, scan.simt_e_pc);

    const std::set<u32> no_chase;
    std::map<Addr, StreamKind> kinds;
    std::map<Addr, StreamInfo> by_pc;
    for (const MemAccess &ra : body) {
        const StreamInfo si =
            makeStream(st, ra, rs.step_known, rs.step, rs.trips_known,
                       rs.trips, opt, no_chase, kinds, by_pc);
        kinds[ra.pc] = si.kind;
        by_pc[ra.pc] = si;
        switch (si.kind) {
          case StreamKind::Affine: ++rs.affine; break;
          case StreamKind::Indirect: ++rs.indirect; break;
          case StreamKind::PointerChase: ++rs.chase; break;
          case StreamKind::Unknown: ++rs.unknown; break;
        }
        emitStreamDiags(si, /*in_region=*/true, opt, report);
        rs.streams.push_back(si);
    }

    report.add(
        Severity::Note, simt_s_pc, "stream",
        detail::vformat(
            "stream table: %zu access(es) — %u affine, %u indirect, "
            "%u pointer-chase, %u unknown; step %s, trips %s",
            rs.streams.size(), rs.affine, rs.indirect, rs.chase,
            rs.unknown,
            rs.step_known
                ? detail::vformat("%lld",
                                  static_cast<long long>(rs.step))
                      .c_str()
                : "unproven",
            rs.trips_known
                ? detail::vformat(
                      "%llu",
                      static_cast<unsigned long long>(rs.trips))
                      .c_str()
                : "unproven"));

    out.regions.push_back(std::move(rs));
}

/**
 * Analyze one serial backward-branch loop with a straight-line body.
 * Pass 1 discovers induction registers (`r += c` per iteration) and
 * loop-carried pointer-chase recurrences (`p = load(p + c)`); pass 2
 * re-runs the numbering with induction registers seeded linear in the
 * iteration counter and classifies the accesses.
 */
void
analyzeLoop(const Cfg &cfg, const Program &prog, const LintOptions &opt,
            Addr head, Addr tail, StreamResult &out, LintResult &report)
{
    for (Addr pc = head; pc <= tail; pc += 4) {
        const auto it = cfg.insts.find(pc);
        if (it == cfg.insts.end())
            return; // undecodable body
        const DecodedInst &di = it->second;
        const bool control = di.isBranch() || di.isJump() ||
                             di.op == Op::SIMT_S || di.op == Op::SIMT_E;
        if (control && pc != tail)
            return; // only single-block do-while loops are analyzable
    }

    // Pass 1: induction / chase discovery. seed() gives register r
    // term r in both passes, so term r names r's value at loop entry.
    SymState st1;
    st1.seed();
    walkRange(st1, prog, head, tail);

    std::array<i64, kNumRegs> delta{};
    std::array<bool, kNumRegs> induct{};
    std::array<bool, kNumRegs> varying{};
    std::set<u32> chase_seeds;
    for (unsigned r = 1; r < kNumRegs; ++r) {
        const SymVal &f = st1.reg[r];
        if (f.base == r && f.scale == 1 && f.rc == 0 && f.tid == 0) {
            if (f.off != 0) {
                induct[r] = true;
                delta[r] = f.off;
            }
        } else if (f.base != 0 && st1.meta[f.base].depth >= 1 &&
                   st1.chainRoot(f.base) == r) {
            // The register's next value is loaded through its own
            // previous value: a pointer-chase recurrence.
            chase_seeds.insert(r);
        } else {
            // Updated per iteration, but neither a constant-offset
            // induction nor a self-rooted chase: register-stride
            // steps (`add r,r,rs`), rescaling (`slli r,r,1`), loads
            // off another pointer, ... The value changes every
            // iteration in a way the algebra does not model.
            varying[r] = true;
        }
    }

    // Pass 2: classification with induction registers linear in the
    // iteration counter (stride comes out directly in bytes). A
    // varying register's seed term is poisoned non-invariant — and so
    // is a chase register's, for uses that reach an access through a
    // combined term whose chain root is the *other* operand — so
    // anything derived from either classifies Unknown rather than
    // falsely loop-invariant Affine.
    SymState st;
    st.seed();
    for (unsigned r = 1; r < kNumRegs; ++r) {
        if (induct[r])
            st.reg[r].rc = delta[r];
        else if (varying[r] || chase_seeds.count(r))
            st.meta[r].invariant = false;
    }
    const std::vector<MemAccess> body = walkRange(st, prog, head, tail);

    LoopStreams ls;
    ls.head = head;
    ls.tail = tail;
    std::map<Addr, StreamKind> kinds;
    std::map<Addr, StreamInfo> by_pc;
    for (const MemAccess &ra : body) {
        const StreamInfo si = makeStream(
            st, ra, /*step_known=*/true, /*step=*/1,
            /*trips_known=*/false, 0, opt, chase_seeds, kinds, by_pc);
        kinds[ra.pc] = si.kind;
        by_pc[ra.pc] = si;
        emitStreamDiags(si, /*in_region=*/false, opt, report);
        ls.streams.push_back(si);
    }
    if (!ls.streams.empty())
        out.loops.push_back(std::move(ls));
}

} // namespace

StreamResult
analyzeStreams(const Program &prog, const LintOptions &opt,
               LintResult &report)
{
    StreamResult out;
    const Cfg cfg = buildCfg(prog, report);
    const AbsIntResult ai = runAbsInt(cfg);

    std::vector<std::pair<Addr, Addr>> region_spans;
    if (opt.simt_enabled) {
        for (const auto &[pc, di] : cfg.insts) {
            if (di.op != Op::SIMT_S)
                continue;
            const SimtScan scan = scanSimtRegion(
                pc, prog.image, opt.line_bytes, opt.clusters_per_ring);
            if (!scan.ok())
                continue; // serializes: no pipelined streams
            region_spans.emplace_back(pc, scan.simt_e_pc);
            analyzeRegion(prog, opt, pc, scan, ai, out, report);
        }
    }
    const auto in_region = [&](Addr pc) {
        for (const auto &[lo, hi] : region_spans)
            if (pc >= lo && pc <= hi)
                return true;
        return false;
    };

    std::set<std::pair<Addr, Addr>> seen;
    for (const auto &[pc, di] : cfg.insts) {
        const bool backward =
            (di.isBranch() || di.op == Op::JAL) && di.imm < 0;
        if (!backward)
            continue;
        const Addr head = pc + static_cast<u32>(di.imm);
        if (in_region(pc) || in_region(head))
            continue;
        if (!seen.insert({head, pc}).second)
            continue;
        analyzeLoop(cfg, prog, opt, head, pc, out, report);
    }

    report.finalize();
    return out;
}

namespace
{

/** Shared per-stream line for the text table. */
std::string
streamLine(const StreamInfo &s)
{
    std::string out = detail::vformat(
        "  0x%08x %-5s %uB %-13s", s.pc, s.is_store ? "store" : "load",
        s.size, streamKindName(s.kind));
    if (s.kind == StreamKind::Affine) {
        if (s.stride_known)
            out += detail::vformat(
                " stride %lld", static_cast<long long>(s.stride));
        else
            out += detail::vformat(
                " stride %lld*step (unproven)",
                static_cast<long long>(s.rc_coeff));
        if (s.tid_coeff != 0)
            out += detail::vformat(
                " tid*%lld", static_cast<long long>(s.tid_coeff));
        if (s.footprint_known)
            out += detail::vformat(
                " footprint %lluB lines %llu reuse %.2f",
                static_cast<unsigned long long>(s.footprint_bytes),
                static_cast<unsigned long long>(s.lines_touched),
                s.reuse_per_line);
    } else if (s.feeder_pc != 0) {
        out += detail::vformat(" feeder 0x%08x", s.feeder_pc);
    }
    out += detail::vformat(" prefetch %s",
                           prefetchClassName(s.prefetch));
    if (s.bank_serialized)
        out += " bank-serialized";
    else if (s.bank_conflict_free)
        out += " bank-ok";
    else
        out += " bank-?";
    return out + "\n";
}

/** Shared per-stream JSON object. */
std::string
streamJson(const StreamInfo &s)
{
    std::string out = detail::vformat(
        "{\"pc\": \"0x%08x\", \"store\": %s, \"size\": %u, "
        "\"kind\": \"%s\", \"rc_coeff\": %lld, \"tid_coeff\": %lld, ",
        s.pc, s.is_store ? "true" : "false", s.size,
        streamKindName(s.kind), static_cast<long long>(s.rc_coeff),
        static_cast<long long>(s.tid_coeff));
    out += s.stride_known
               ? detail::vformat("\"stride\": %lld, ",
                                 static_cast<long long>(s.stride))
               : "\"stride\": null, ";
    out += s.feeder_pc != 0
               ? detail::vformat("\"feeder\": \"0x%08x\", ",
                                 s.feeder_pc)
               : "\"feeder\": null, ";
    out += s.footprint_known
               ? detail::vformat(
                     "\"footprint\": %llu, \"lines\": %llu, "
                     "\"reuse\": %.2f, ",
                     static_cast<unsigned long long>(
                         s.footprint_bytes),
                     static_cast<unsigned long long>(s.lines_touched),
                     s.reuse_per_line)
               : "\"footprint\": null, \"lines\": null, "
                 "\"reuse\": null, ";
    out += detail::vformat(
        "\"bank_conflict_free\": %s, \"bank_serialized\": %s, "
        "\"prefetch\": \"%s\"}",
        s.bank_conflict_free ? "true" : "false",
        s.bank_serialized ? "true" : "false",
        prefetchClassName(s.prefetch));
    return out;
}

} // namespace

std::string
renderStreamText(const StreamResult &r)
{
    std::string out;
    for (const RegionStreams &rg : r.regions) {
        out += detail::vformat(
            "simt region 0x%08x..0x%08x: %zu stream(s) — %u affine, "
            "%u indirect, %u pointer-chase, %u unknown; step %s, "
            "trips %s%s\n",
            rg.simt_s_pc, rg.simt_e_pc, rg.streams.size(), rg.affine,
            rg.indirect, rg.chase, rg.unknown,
            rg.step_known
                ? detail::vformat("%lld",
                                  static_cast<long long>(rg.step))
                      .c_str()
                : "unproven",
            rg.trips_known
                ? detail::vformat(
                      "%llu",
                      static_cast<unsigned long long>(rg.trips))
                      .c_str()
                : "unproven",
            rg.straightline ? ", straight-line" : "");
        for (const StreamInfo &s : rg.streams)
            out += streamLine(s);
    }
    for (const LoopStreams &lp : r.loops) {
        out += detail::vformat("loop 0x%08x..0x%08x: %zu stream(s)\n",
                               lp.head, lp.tail, lp.streams.size());
        for (const StreamInfo &s : lp.streams)
            out += streamLine(s);
    }
    if (out.empty())
        out = "no streams identified\n";
    return out;
}

std::string
renderStreamJson(const StreamResult &r)
{
    std::string out = "{\"regions\": [";
    bool first = true;
    for (const RegionStreams &rg : r.regions) {
        out += first ? "\n" : ",\n";
        first = false;
        out += detail::vformat(
            "  {\"simt_s\": \"0x%08x\", \"simt_e\": \"0x%08x\", "
            "\"straightline\": %s, ",
            rg.simt_s_pc, rg.simt_e_pc,
            rg.straightline ? "true" : "false");
        out += rg.step_known
                   ? detail::vformat("\"step\": %lld, ",
                                     static_cast<long long>(rg.step))
                   : "\"step\": null, ";
        out += rg.trips_known
                   ? detail::vformat(
                         "\"trips\": %llu, ",
                         static_cast<unsigned long long>(rg.trips))
                   : "\"trips\": null, ";
        out += detail::vformat(
            "\"affine\": %u, \"indirect\": %u, \"chase\": %u, "
            "\"unknown\": %u, \"streams\": [",
            rg.affine, rg.indirect, rg.chase, rg.unknown);
        bool sfirst = true;
        for (const StreamInfo &s : rg.streams) {
            out += sfirst ? "\n    " : ",\n    ";
            sfirst = false;
            out += streamJson(s);
        }
        out += sfirst ? "]}" : "\n  ]}";
    }
    out += first ? "], \"loops\": [" : "\n], \"loops\": [";
    first = true;
    for (const LoopStreams &lp : r.loops) {
        out += first ? "\n" : ",\n";
        first = false;
        out += detail::vformat(
            "  {\"head\": \"0x%08x\", \"tail\": \"0x%08x\", "
            "\"streams\": [",
            lp.head, lp.tail);
        bool sfirst = true;
        for (const StreamInfo &s : lp.streams) {
            out += sfirst ? "\n    " : ",\n    ";
            sfirst = false;
            out += streamJson(s);
        }
        out += sfirst ? "]}" : "\n  ]}";
    }
    out += first ? "]}\n" : "\n]}\n";
    return out;
}

} // namespace diag::analysis
