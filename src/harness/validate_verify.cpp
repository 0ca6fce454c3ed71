#include "harness/validate_verify.hpp"

#include <algorithm>

#include "asm/assembler.hpp"
#include "common/log.hpp"
#include "diag/processor.hpp"
#include "harness/validate.hpp"
#include "host/cancel.hpp"
#include "host/parallel.hpp"
#include "ooo/processor.hpp"
#include "sim/golden.hpp"

namespace diag::harness
{

namespace
{

using analysis::PropertyKind;
using analysis::Verdict;

/** Byte-compare two sparse memories over the union of their pages. */
bool
memEqual(const SparseMemory &a, const SparseMemory &b)
{
    std::vector<Addr> pages;
    a.forEachPage([&](Addr base) { pages.push_back(base); });
    b.forEachPage([&](Addr base) { pages.push_back(base); });
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    for (const Addr base : pages)
        for (Addr off = 0; off < SparseMemory::kPageSize; off += 4)
            if (a.read32(base + off) != b.read32(base + off))
                return false;
    return true;
}

bool
isDiv(isa::Op op)
{
    return op == isa::Op::DIV || op == isa::Op::DIVU ||
           op == isa::Op::REM || op == isa::Op::REMU;
}

/** [addr, addr+size) lies inside one of the program's chunks. */
bool
inChunks(const Program &prog, Addr addr, unsigned size)
{
    for (const ProgramChunk &c : prog.chunks)
        if (addr >= c.base &&
            static_cast<u64>(addr) + size <=
                static_cast<u64>(c.base) + c.size)
            return true;
    return false;
}

std::string
summarize(const analysis::VerifyResult &vr)
{
    std::string s;
    for (const auto &p : vr.props) {
        if (!s.empty())
            s += " ";
        s += detail::vformat("%s=%s",
                             analysis::propertyName(p.kind),
                             analysis::verdictName(p.verdict));
    }
    for (const auto &r : vr.regions)
        s += detail::vformat(" region@0x%x[race=%s,deadlock=%s]",
                             r.simt_s_pc,
                             analysis::verdictName(r.race),
                             analysis::verdictName(r.deadlock));
    return s;
}

void
countVerdicts(const analysis::VerifyResult &vr, VerifyCheck &c)
{
    const auto tally = [&](Verdict v) {
        if (v == Verdict::Proven)
            ++c.proofs;
        else if (v == Verdict::Refuted)
            ++c.refutations;
    };
    for (const auto &p : vr.props)
        tally(p.verdict);
    for (const auto &r : vr.regions) {
        tally(r.race);
        tally(r.deadlock);
    }
}

/**
 * Check one (Proven|Refuted) safety verdict against the event the
 * golden execution observed. Appends a failure message when the
 * verdict is unsound (proof contradicted by an observation) or bogus
 * (refutation on a halting run that never shows the event).
 */
void
checkEventVerdict(const analysis::VerifyResult &vr, PropertyKind kind,
                  bool observed, bool golden_halted, VerifyCheck &c)
{
    const Verdict v = vr.prop(kind).verdict;
    if (v == Verdict::Proven && observed)
        c.failures.push_back(detail::vformat(
            "UNSOUND: %s proven, but the golden execution observed "
            "the event",
            analysis::propertyName(kind)));
    if (v == Verdict::Refuted && golden_halted && !observed)
        c.failures.push_back(detail::vformat(
            "BOGUS REFUTATION: %s refuted, but the golden execution "
            "halted without the event",
            analysis::propertyName(kind)));
}

} // namespace

sim::FuzzOptions
fuzzOptionsFor(u64 seed, FuzzProfile profile)
{
    if (profile == FuzzProfile::Mixed)
        profile = (seed % 2 == 0) ? FuzzProfile::Scalar
                                  : FuzzProfile::Simt;
    sim::FuzzOptions fo;
    fo.seed = seed;
    fo.hazard_pct = 30;
    if (profile == FuzzProfile::Simt) {
        fo.use_simt = true;
        fo.simt_regions = 1 + static_cast<unsigned>(seed % 3);
        fo.segments = 8;
        // No calls: jalr-free programs let control safety *prove*,
        // and keep every address computation statically resolvable.
        fo.use_calls = false;
    }
    return fo;
}

VerifyCheck
validateVerify(const core::DiagConfig &cfg, const sim::FuzzOptions &fo,
               u64 max_insts, u64 host_timeout_ms)
{
    // One watchdog spans the whole check: golden stepping and both
    // engine runs share the budget, so the sum is bounded too.
    host::CancelToken watchdog;
    if (host_timeout_ms > 0)
        watchdog = host::CancelToken::withTimeout(host_timeout_ms);
    VerifyCheck c;
    c.seed = fo.seed;
    const sim::FuzzProgram fp = sim::generateFuzzProgramEx(fo);
    c.has_simt = fp.has_simt;
    c.racy = fp.racy;
    c.injected_div0 = fp.div0;
    c.injected_misaligned = fp.misaligned;
    c.injected_oob = fp.oob;

    const Program prog = assembler::assemble(fp.source);

    // 1. The verifier's verdicts. Fuzz programs define their own
    // registers; the ABI entry convention does not apply.
    analysis::VerifyOptions vo;
    vo.lint = lintOptionsFor(cfg);
    vo.lint.entry_defined = analysis::RegSet{};
    const analysis::VerifyResult vr = analysis::verifyProgram(prog, vo);
    c.verdicts = summarize(vr);
    countVerdicts(vr, c);

    // 2. Golden execution, observing the events the verdicts are
    // about. The divisor is read *before* the step (rd may alias
    // rs2); misalignment/out-of-map are judged on the access the
    // step actually performed.
    sim::GoldenSim gold(prog);
    for (u64 n = 0; n < max_insts && !gold.halted(); ++n) {
        if ((n & 4095) == 0 && watchdog.expired()) {
            c.host_timed_out = true;
            return c;
        }
        const isa::DecodedInst di = gold.decodeAt(gold.pc());
        if (isDiv(di.op) && gold.reg(di.rs2) == 0)
            c.obs_div0 = true;
        const sim::StepInfo si = gold.step();
        if (si.faulted) {
            c.golden_faulted = true;
            break;
        }
        if (si.is_mem) {
            const unsigned size = di.info().memBytes;
            if (size > 1 && si.mem_addr % size != 0)
                c.obs_misaligned = true;
            if (!inChunks(prog, si.mem_addr, size))
                c.obs_oob = true;
        }
        if (si.halted)
            break;
    }
    c.golden_halted = gold.halted();

    // 3. Soundness of the event verdicts.
    if (vr.prop(PropertyKind::ControlSafe).verdict ==
            Verdict::Proven &&
        c.golden_faulted)
        c.failures.push_back(
            "UNSOUND: control safety proven, but the golden "
            "execution faulted");
    checkEventVerdict(vr, PropertyKind::NoDivByZero, c.obs_div0,
                      c.golden_halted, c);
    checkEventVerdict(vr, PropertyKind::NoMisaligned,
                      c.obs_misaligned, c.golden_halted, c);
    checkEventVerdict(vr, PropertyKind::NoOutOfBounds, c.obs_oob,
                      c.golden_halted, c);

    // 4. Race verdicts against the generator's constructive ground
    // truth: regions with an injected overlap may not prove safe,
    // and clean regions may not be refuted.
    unsigned race_not_proven = 0, race_refuted = 0;
    for (const auto &r : vr.regions) {
        if (r.race != Verdict::Proven)
            ++race_not_proven;
        if (r.race == Verdict::Refuted)
            ++race_refuted;
    }
    if (race_not_proven < fp.racy_regions)
        c.failures.push_back(detail::vformat(
            "UNSOUND: %u region(s) carry an injected cross-thread "
            "race but only %u escaped a race-freedom proof",
            fp.racy_regions, race_not_proven));
    if (race_refuted > fp.racy_regions)
        c.failures.push_back(detail::vformat(
            "BOGUS REFUTATION: %u region(s) refuted as racy, but "
            "only %u have an injected race (the rest are disjoint "
            "by construction)",
            race_refuted, fp.racy_regions));
    // Generated regions always use a positive constant step: a
    // livelock refutation would be fabricated.
    for (const auto &r : vr.regions)
        if (r.deadlock == Verdict::Refuted)
            c.failures.push_back(detail::vformat(
                "BOGUS REFUTATION: region 0x%08x refuted as "
                "deadlocking, but every generated region has a "
                "positive constant step",
                r.simt_s_pc));

    // 5. DiAG execution: deadlock-freedom proofs must be matched by
    // an actual halt, and the proven thread count must equal what
    // the ring's token counters measured. Lint strictness is off:
    // racy programs carry deliberate memdep errors.
    core::DiagConfig dcfg = cfg;
    dcfg.lint_enabled = false;
    dcfg.verify_enabled = false;
    core::DiagProcessor dproc(dcfg);
    dproc.attachCancel(&watchdog);
    const sim::RunStats drs = dproc.run(prog, max_insts);
    dproc.attachCancel(nullptr);
    // A host-watchdog stop says nothing about the program: the check
    // is incomplete, not a soundness failure.
    if (drs.timed_out && drs.stop_reason.find("host watchdog") !=
                             std::string::npos) {
        c.host_timed_out = true;
        return c;
    }
    const bool diag_halted = drs.halted && !drs.timed_out;
    for (const auto &r : vr.regions) {
        if (r.deadlock != Verdict::Proven)
            continue;
        if (!diag_halted)
            c.failures.push_back(detail::vformat(
                "UNSOUND: deadlock-freedom proven for region 0x%08x "
                "but the DiAG run did not halt (%s)",
                r.simt_s_pc,
                drs.stop_reason.empty() ? "timeout"
                                        : drs.stop_reason.c_str()));
    }
    for (const auto &r : vr.regions) {
        if (r.deadlock != Verdict::Proven || !diag_halted)
            continue;
        const double entries =
            drs.counters.get(sim::simtRegionKey(r.simt_s_pc, "entries"));
        const double threads =
            drs.counters.get(sim::simtRegionKey(r.simt_s_pc, "threads"));
        if (entries > 0 &&
            threads !=
                entries * static_cast<double>(r.threads))
            c.failures.push_back(detail::vformat(
                "TOKEN CONSERVATION: region 0x%08x proven to run "
                "%llu thread(s) per entry, but the ring measured "
                "%.0f threads over %.0f entries",
                r.simt_s_pc,
                static_cast<unsigned long long>(r.threads), threads,
                entries));
    }

    // 6. The classic differential check: DiAG and OoO architectural
    // state against golden. Racy programs are timing-dependent by
    // design, and a non-halting golden has no final state.
    if (!fp.racy && c.golden_halted && diag_halted) {
        bool match = memEqual(dproc.memory(), gold.memory());
        for (unsigned i = 0; match && i < isa::kNumRegs; ++i)
            match = dproc.finalReg(
                        0, static_cast<isa::RegId>(i)) ==
                    gold.reg(static_cast<isa::RegId>(i));
        if (!match) {
            c.engines_match = false;
            c.failures.push_back(
                "ENGINE MISMATCH: DiAG architectural state differs "
                "from golden");
        }
        ooo::OooProcessor oproc(ooo::OooConfig::baseline8());
        oproc.attachCancel(&watchdog);
        const sim::RunStats ors = oproc.run(prog, max_insts);
        oproc.attachCancel(nullptr);
        if (ors.timed_out && ors.stop_reason.find(
                                 "host watchdog") !=
                                 std::string::npos) {
            c.host_timed_out = true;
            return c;
        }
        bool omatch = ors.halted && !ors.timed_out &&
                      memEqual(oproc.memory(), gold.memory());
        for (unsigned i = 0; omatch && i < isa::kNumRegs; ++i)
            omatch = oproc.finalReg(
                         0, static_cast<isa::RegId>(i)) ==
                     gold.reg(static_cast<isa::RegId>(i));
        if (!omatch) {
            c.engines_match = false;
            c.failures.push_back(
                "ENGINE MISMATCH: OoO architectural state differs "
                "from golden");
        }
    }

    if (!c.ok())
        c.source = fp.source;
    return c;
}

VerifyFuzzReport
runVerifyFuzz(const core::DiagConfig &cfg, u64 base_seed,
              unsigned count, unsigned jobs, FuzzProfile profile,
              u64 host_timeout_ms)
{
    VerifyFuzzReport rep;
    rep.base_seed = base_seed;
    rep.programs = count;
    rep.checks = host::parallelMap<VerifyCheck>(
        jobs, count,
        [&cfg, base_seed, profile, host_timeout_ms](size_t n) {
            return validateVerify(
                cfg, fuzzOptionsFor(base_seed + n, profile),
                2'000'000, host_timeout_ms);
        });
    for (const VerifyCheck &c : rep.checks) {
        rep.proofs += c.proofs;
        rep.refutations += c.refutations;
        if (c.host_timed_out)
            ++rep.host_timed_out;
        else if (!c.ok())
            ++rep.failed;
    }
    return rep;
}

std::string
renderVerifyFuzz(const VerifyFuzzReport &r, bool verbose)
{
    std::string out;
    for (const VerifyCheck &c : r.checks) {
        if (c.ok() && !c.host_timed_out && !verbose)
            continue;
        out += detail::vformat(
            "seed %llu:%s %s\n",
            static_cast<unsigned long long>(c.seed),
            c.host_timed_out ? " HOST-TIMEOUT"
                             : (c.ok() ? " ok" : " FAIL"),
            c.verdicts.c_str());
        for (const std::string &f : c.failures)
            out += "  " + f + "\n";
    }
    out += detail::vformat(
        "verify-fuzz: %u/%u programs held up (%u proofs, %u "
        "refutations cross-checked, %u host timeout(s), base seed "
        "%llu)\n",
        r.programs - r.failed - r.host_timed_out, r.programs,
        r.proofs, r.refutations, r.host_timed_out,
        static_cast<unsigned long long>(r.base_seed));
    return out;
}

} // namespace diag::harness
