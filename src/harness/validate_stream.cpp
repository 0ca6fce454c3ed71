#include "harness/validate_stream.hpp"

#include <algorithm>
#include <map>

#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "harness/runner.hpp"
#include "harness/validate.hpp"

namespace diag::harness
{

namespace
{

using analysis::LoopStreams;
using analysis::RegionStreams;
using analysis::StreamInfo;
using analysis::StreamKind;
using trace::AddrTrace;

/** Distances within which two accesses of one stream can hold an L1D
 *  bank concurrently (the analyzer proves conflict-freedom over the
 *  same window; two bank-pattern periods bound it, see makeStream). */
u64
bankWindow(const core::DiagConfig &cfg)
{
    const u64 banks = cfg.mem.l1d.banks;
    if (banks == 0)
        return 1;
    return std::min<u64>(
        std::max<Cycle>(1, cfg.mem.l1d.bank_occupancy), 16 * banks);
}

/** Recorded entries of one simt_s pc, in recording order. */
using EntryList = std::vector<const AddrTrace::Region *>;

void
fail(StreamRegionCheck &c, std::string msg)
{
    c.failures.push_back(std::move(msg));
}

/**
 * Replay one proven-affine stream against one recorded region entry.
 * Returns false on the first deviation (already reported into @p c).
 */
bool
replayAffine(StreamRegionCheck &c, const RegionStreams &rs,
             const StreamInfo &s, const AddrTrace::Region &rec,
             u64 entry)
{
    const auto cit = rec.counts.find(s.pc);
    const u64 cnt = cit == rec.counts.end() ? 0 : cit->second;
    if (rs.straightline && cnt != rec.trips) {
        fail(c, detail::vformat(
                    "pc 0x%08x entry %llu: executed %llu times, "
                    "pipeline launched %llu threads",
                    s.pc, (unsigned long long)entry,
                    (unsigned long long)cnt,
                    (unsigned long long)rec.trips));
        return false;
    }
    const auto ait = rec.addrs.find(s.pc);
    if (ait == rec.addrs.end() || ait->second.size() < 2)
        return true;  // nothing to replay against
    const std::vector<u32> &seq = ait->second;
    if (rs.straightline && s.stride_known) {
        // Exact map: every thread executes the access once, so the
        // k-th recorded address must be addr[0] + k*stride (mod 2^32).
        for (size_t k = 1; k < seq.size(); ++k) {
            const u32 want = static_cast<u32>(
                static_cast<u64>(seq[0]) +
                static_cast<u64>(static_cast<i64>(k) * s.stride));
            if (seq[k] != want) {
                fail(c, detail::vformat(
                            "pc 0x%08x entry %llu thread %zu: observed "
                            "0x%08x, affine map predicts 0x%08x "
                            "(stride %lld)",
                            s.pc, (unsigned long long)entry, k, seq[k],
                            want, (long long)s.stride));
                return false;
            }
        }
        return true;
    }
    if (rs.straightline) {
        // Stride unproven (simt step not a compile-time constant) but
        // the map is still affine: the observed deltas must be equal.
        const u32 d0 = seq[1] - seq[0];
        for (size_t k = 1; k + 1 < seq.size(); ++k) {
            if (seq[k + 1] - seq[k] != d0) {
                fail(c, detail::vformat(
                            "pc 0x%08x entry %llu thread %zu: delta "
                            "0x%08x breaks the constant-stride run of "
                            "0x%08x",
                            s.pc, (unsigned long long)entry, k,
                            seq[k + 1] - seq[k], d0));
                return false;
            }
        }
        return true;
    }
    // Branchy body: a thread may skip the access, so observed deltas
    // are (positive) multiples of the per-thread stride.
    if (s.stride_known && s.stride != 0) {
        for (size_t k = 0; k + 1 < seq.size(); ++k) {
            const i64 d = static_cast<i32>(seq[k + 1] - seq[k]);
            if (d == 0 || d % s.stride != 0 || d / s.stride < 1) {
                fail(c, detail::vformat(
                            "pc 0x%08x entry %llu thread %zu: delta "
                            "%lld is not a positive multiple of "
                            "stride %lld",
                            s.pc, (unsigned long long)entry, k,
                            (long long)d, (long long)s.stride));
                return false;
            }
        }
        return true;
    }
    if ((s.stride_known && s.stride == 0) || s.rc_coeff == 0) {
        // Invariant address: every access of the entry must agree.
        for (size_t k = 1; k < seq.size(); ++k) {
            if (seq[k] != seq[0]) {
                fail(c, detail::vformat(
                            "pc 0x%08x entry %llu thread %zu: observed "
                            "0x%08x, invariant map predicts 0x%08x",
                            s.pc, (unsigned long long)entry, k, seq[k],
                            seq[0]));
                return false;
            }
        }
    }
    return true;
}

/** First same-bank distinct-word pair within @p window positions of
 *  each other in @p seq, or (size, size) when none. */
std::pair<size_t, size_t>
firstBankConflict(const std::vector<u32> &seq, u32 banks, u64 window)
{
    for (size_t k = 0; k + 1 < seq.size(); ++k) {
        const size_t last =
            std::min<size_t>(seq.size() - 1, k + window);
        for (size_t j = k + 1; j <= last; ++j) {
            const u32 wa = seq[k] >> 3, wb = seq[j] >> 3;
            if (wa != wb && (wa & (banks - 1)) == (wb & (banks - 1)))
                return {k, j};
        }
    }
    return {seq.size(), seq.size()};
}

/**
 * Check a proven conflict-free stream: no two recorded accesses
 * within the in-flight window of each other may map to one bank from
 * different 8-byte words.
 */
bool
replayBanks(StreamRegionCheck &c, const StreamInfo &s,
            const AddrTrace::Region &rec, u64 entry, u32 banks,
            u64 window)
{
    const auto ait = rec.addrs.find(s.pc);
    if (ait == rec.addrs.end())
        return true;
    const std::vector<u32> &seq = ait->second;
    const auto [a, b] = firstBankConflict(seq, banks, window);
    if (a == seq.size())
        return true;
    fail(c, detail::vformat(
                "pc 0x%08x entry %llu threads %zu and %zu: predicted "
                "conflict-free, but 0x%08x and 0x%08x share bank %u",
                s.pc, (unsigned long long)entry, a, b, seq[a], seq[b],
                (seq[a] >> 3) & (banks - 1)));
    return false;
}

StreamRegionCheck
checkRegion(const RegionStreams &rs, const EntryList &entries,
            u32 banks, u64 window)
{
    StreamRegionCheck c;
    c.pc = rs.simt_s_pc;
    c.entries = entries.size();
    for (const AddrTrace::Region *rec : entries) {
        c.threads += rec->trips;
        if (rs.step_known &&
            rec->step != static_cast<u32>(rs.step)) {
            c.launch_ok = false;
            fail(c, detail::vformat(
                        "recorded step %u contradicts the proven "
                        "constant %lld",
                        rec->step, (long long)rs.step));
        }
        if (rs.trips_known && rec->trips != rs.trips) {
            c.launch_ok = false;
            fail(c, detail::vformat(
                        "recorded %llu threads contradict the proven "
                        "trip count %llu",
                        (unsigned long long)rec->trips,
                        (unsigned long long)rs.trips));
        }
    }
    for (const StreamInfo &s : rs.streams) {
        if (s.kind == StreamKind::Affine) {
            ++c.affine_streams;
            bool clean = true;
            u64 entry = 0;
            for (const AddrTrace::Region *rec : entries)
                clean = replayAffine(c, rs, s, *rec, entry++) && clean;
            c.affine_ok += clean ? 1 : 0;
        }
        if (s.bank_conflict_free) {
            ++c.bank_streams;
            bool clean = true;
            u64 entry = 0;
            for (const AddrTrace::Region *rec : entries)
                clean = replayBanks(c, s, *rec, entry++, banks,
                                    window) &&
                        clean;
            c.bank_ok += clean ? 1 : 0;
        }
    }
    return c;
}

/**
 * Split one pc's serial (seq, addr) record into loop-entry runs: two
 * consecutive executions continue one entry iff the loop's backward
 * branch fired between them. @p takens holds the (ascending) sequence
 * numbers of that branch's taken events.
 */
std::vector<std::vector<u32>>
entryRuns(const std::vector<std::pair<u64, u32>> &rec,
          const std::vector<u64> &takens)
{
    std::vector<std::vector<u32>> runs;
    size_t j = 0;
    for (size_t k = 0; k < rec.size(); ++k) {
        bool cont = false;
        if (k > 0) {
            while (j < takens.size() && takens[j] < rec[k - 1].first)
                ++j;
            cont = j < takens.size() && takens[j] < rec[k].first;
        }
        if (cont)
            runs.back().push_back(rec[k].second);
        else
            runs.push_back({rec[k].second});
    }
    return runs;
}

StreamLoopCheck
checkLoop(const LoopStreams &ls, const AddrTrace &at, u32 banks,
          u64 window)
{
    StreamLoopCheck c;
    c.head = ls.head;
    c.tail = ls.tail;
    // Iteration boundaries: taken events of the loop's own branch.
    std::vector<u64> takens;
    for (const auto &[seq, pc] : at.loop_backs)
        if (pc == ls.tail)
            takens.push_back(seq);
    for (const StreamInfo &s : ls.streams) {
        const auto it = at.serial_addrs.find(s.pc);
        std::vector<std::vector<u32>> runs;
        if (it != at.serial_addrs.end() && !it->second.empty()) {
            runs = entryRuns(it->second, takens);
            c.entries = std::max<u64>(c.entries, runs.size());
            c.iterations =
                std::max<u64>(c.iterations, it->second.size());
        }
        if (s.kind == StreamKind::Affine && s.stride_known) {
            ++c.affine_streams;
            bool clean = true;
            for (size_t e = 0; e < runs.size() && clean; ++e) {
                const std::vector<u32> &seq = runs[e];
                for (size_t k = 1; k < seq.size(); ++k) {
                    const u32 want = static_cast<u32>(
                        static_cast<u64>(seq[0]) +
                        static_cast<u64>(static_cast<i64>(k) *
                                         s.stride));
                    if (seq[k] == want)
                        continue;
                    c.failures.push_back(detail::vformat(
                        "pc 0x%08x entry %zu iteration %zu: observed "
                        "0x%08x, affine map predicts 0x%08x "
                        "(stride %lld)",
                        s.pc, e, k, seq[k], want,
                        (long long)s.stride));
                    clean = false;
                    break;
                }
            }
            c.affine_ok += clean ? 1 : 0;
        }
        if (s.bank_conflict_free && banks > 0) {
            ++c.bank_streams;
            bool clean = true;
            for (size_t e = 0; e < runs.size() && clean; ++e) {
                const auto [a, b] =
                    firstBankConflict(runs[e], banks, window);
                if (a == runs[e].size())
                    continue;
                c.failures.push_back(detail::vformat(
                    "pc 0x%08x entry %zu iterations %zu and %zu: "
                    "predicted conflict-free, but 0x%08x and 0x%08x "
                    "share bank %u",
                    s.pc, e, a, b, runs[e][a], runs[e][b],
                    (runs[e][a] >> 3) & (banks - 1)));
                clean = false;
            }
            c.bank_ok += clean ? 1 : 0;
        }
    }
    return c;
}

} // namespace

bool
StreamValidation::ok() const
{
    for (const StreamRegionCheck &c : regions)
        if (!c.ok())
            return false;
    for (const StreamLoopCheck &c : loops)
        if (!c.ok())
            return false;
    return true;
}

StreamValidation
validateStream(const core::DiagConfig &cfg, const workloads::Workload &w)
{
    fatal_if(w.asm_simt.empty(),
             "stream validation replays simt regions; %s has no simt "
             "variant",
             w.name.c_str());
    StreamValidation rep;
    rep.workload = w.name;
    rep.config = cfg.name;

    const Program prog = assembler::assemble(w.asm_simt);
    analysis::LintResult scratch;
    const analysis::StreamResult sr =
        analysis::analyzeStreams(prog, lintOptionsFor(cfg), scratch);
    rep.regions_static = sr.regions.size();

    RunSpec spec;
    spec.threads = 1;
    spec.use_simt = true;
    spec.record_addrs = true;
    const EngineRun run = runOnDiag(cfg, w, spec);

    // Pool the recorded entries by region pc (a region re-enters once
    // per surrounding serial-loop iteration).
    std::map<Addr, EntryList> recorded;
    for (const AddrTrace::Region &rec : run.addrs->regions)
        recorded[rec.simt_s_pc].push_back(&rec);

    const u32 banks = cfg.mem.l1d.banks;
    const u64 window = bankWindow(cfg);
    for (const RegionStreams &rs : sr.regions) {
        const auto it = recorded.find(rs.simt_s_pc);
        if (it == recorded.end()) {
            StreamRegionCheck c;
            c.pc = rs.simt_s_pc;
            rep.regions.push_back(std::move(c));
            continue;
        }
        ++rep.regions_entered;
        rep.regions.push_back(
            checkRegion(rs, it->second, banks, window));
        recorded.erase(it);
    }
    // A recorded region the analyzer never classified is itself a
    // coverage failure (the static pass must see every simt_s).
    for (const auto &[pc, entries] : recorded) {
        StreamRegionCheck c;
        c.pc = pc;
        c.entries = entries.size();
        c.launch_ok = false;
        fail(c, "pipelined at run time but never classified "
                "statically");
        rep.regions.push_back(std::move(c));
    }
    // Serial single-block loops: segment the serially recorded
    // address sequences into loop entries and replay the loop-scope
    // affine and bank verdicts the same way.
    rep.loops_static = sr.loops.size();
    for (const LoopStreams &ls : sr.loops) {
        StreamLoopCheck c = checkLoop(ls, *run.addrs, banks, window);
        if (c.iterations > 0)
            ++rep.loops_entered;
        rep.loops.push_back(std::move(c));
    }
    return rep;
}

std::string
renderStreamValidation(const StreamValidation &r)
{
    std::string out = detail::vformat(
        "%s [%s]: %llu/%llu regions, %llu/%llu loops entered at run "
        "time  %s\n",
        r.workload.c_str(), r.config.c_str(),
        (unsigned long long)r.regions_entered,
        (unsigned long long)r.regions_static,
        (unsigned long long)r.loops_entered,
        (unsigned long long)r.loops_static,
        r.ok() ? "ok" : "FAILED");
    for (const StreamRegionCheck &c : r.regions) {
        if (c.entries == 0) {
            out += detail::vformat(
                "  region 0x%08x: never pipelined at run time\n", c.pc);
            continue;
        }
        out += detail::vformat(
            "  region 0x%08x: %llu entries, %llu threads, affine "
            "%u/%u replayed, conflict-free %u/%u confirmed%s\n",
            c.pc, (unsigned long long)c.entries,
            (unsigned long long)c.threads, c.affine_ok,
            c.affine_streams, c.bank_ok, c.bank_streams,
            c.ok() ? "" : "  FAILED");
        for (const std::string &f : c.failures)
            out += "    FAIL " + f + "\n";
    }
    for (const StreamLoopCheck &c : r.loops) {
        if (c.iterations == 0) {
            out += detail::vformat(
                "  loop 0x%08x..0x%08x: never executed at run time\n",
                c.head, c.tail);
            continue;
        }
        out += detail::vformat(
            "  loop 0x%08x..0x%08x: %llu entries, %llu iterations, "
            "affine %u/%u replayed, conflict-free %u/%u confirmed%s\n",
            c.head, c.tail, (unsigned long long)c.entries,
            (unsigned long long)c.iterations, c.affine_ok,
            c.affine_streams, c.bank_ok, c.bank_streams,
            c.ok() ? "" : "  FAILED");
        for (const std::string &f : c.failures)
            out += "    FAIL " + f + "\n";
    }
    return out;
}

std::string
renderStreamValidationJson(const StreamValidation &r)
{
    std::string out = detail::vformat(
        "{\n  \"workload\": \"%s\",\n  \"config\": \"%s\",\n"
        "  \"regions_entered\": %llu,\n  \"regions_static\": %llu,\n"
        "  \"loops_entered\": %llu,\n  \"loops_static\": %llu,\n"
        "  \"ok\": %s,\n  \"regions\": [",
        jsonEscape(r.workload).c_str(), jsonEscape(r.config).c_str(),
        (unsigned long long)r.regions_entered,
        (unsigned long long)r.regions_static,
        (unsigned long long)r.loops_entered,
        (unsigned long long)r.loops_static,
        r.ok() ? "true" : "false");
    bool first = true;
    for (const StreamRegionCheck &c : r.regions) {
        out += first ? "\n" : ",\n";
        first = false;
        out += detail::vformat(
            "    {\"pc\": \"0x%08x\", \"entries\": %llu, "
            "\"threads\": %llu, \"affine_streams\": %u, "
            "\"affine_ok\": %u, \"bank_streams\": %u, "
            "\"bank_ok\": %u, \"launch_ok\": %s, \"failures\": [",
            c.pc, (unsigned long long)c.entries,
            (unsigned long long)c.threads, c.affine_streams,
            c.affine_ok, c.bank_streams, c.bank_ok,
            c.launch_ok ? "true" : "false");
        bool ffirst = true;
        for (const std::string &f : c.failures) {
            out += ffirst ? "\"" : ", \"";
            ffirst = false;
            out += jsonEscape(f) + "\"";
        }
        out += "]}";
    }
    out += first ? "],\n  \"loops\": [" : "\n  ],\n  \"loops\": [";
    first = true;
    for (const StreamLoopCheck &c : r.loops) {
        out += first ? "\n" : ",\n";
        first = false;
        out += detail::vformat(
            "    {\"head\": \"0x%08x\", \"tail\": \"0x%08x\", "
            "\"entries\": %llu, \"iterations\": %llu, "
            "\"affine_streams\": %u, \"affine_ok\": %u, "
            "\"bank_streams\": %u, \"bank_ok\": %u, \"failures\": [",
            c.head, c.tail, (unsigned long long)c.entries,
            (unsigned long long)c.iterations, c.affine_streams,
            c.affine_ok, c.bank_streams, c.bank_ok);
        bool ffirst = true;
        for (const std::string &f : c.failures) {
            out += ffirst ? "\"" : ", \"";
            ffirst = false;
            out += jsonEscape(f) + "\"";
        }
        out += "]}";
    }
    out += first ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

} // namespace diag::harness
