#include "analysis/cfg.hpp"

#include <algorithm>
#include <set>

#include "common/log.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"

namespace diag::analysis
{

using namespace diag::isa;

namespace
{

/** True iff a 4-byte instruction fits at @p pc inside some chunk. */
bool
inImage(const Program &prog, Addr pc)
{
    for (const ProgramChunk &c : prog.chunks) {
        if (pc >= c.base && pc + 4 <= c.base + c.size)
            return true;
    }
    return false;
}

/** Statically-known successors of one instruction. */
struct Succs
{
    Addr target[2] = {};
    unsigned n = 0;
    bool unknown = false;      //!< indirect transfer (jalr)
    bool fallthrough = false;  //!< target[i] == pc + 4 present
    bool call_return = false;  //!< the fall-through models a call return

    void
    add(Addr a)
    {
        target[n++] = a;
    }
};

Succs
successors(Addr pc, const DecodedInst &di)
{
    Succs s;
    if (!di.valid() || di.op == Op::EBREAK || di.op == Op::ECALL)
        return s;  // faults or halts: no successors
    if (di.isBranch()) {
        s.add(pc + static_cast<u32>(di.imm));
        s.add(pc + 4);
        s.fallthrough = true;
        return s;
    }
    if (di.op == Op::JAL) {
        s.add(pc + static_cast<u32>(di.imm));
        if (di.writesReg()) {
            // A call: assume the callee returns to pc + 4.
            s.add(pc + 4);
            s.fallthrough = true;
            s.call_return = true;
        }
        return s;
    }
    if (di.op == Op::JALR) {
        s.unknown = true;
        if (di.writesReg()) {
            s.add(pc + 4);
            s.fallthrough = true;
            s.call_return = true;
        }
        return s;
    }
    if (di.op == Op::SIMT_E) {
        // Scalar semantics: a do-while back edge to the first body
        // instruction, falling through once the loop ends.
        s.add(pc - simtEndFields(di).lOffset + 4);
        s.add(pc + 4);
        s.fallthrough = true;
        return s;
    }
    s.add(pc + 4);
    s.fallthrough = true;
    return s;
}

} // namespace

Cfg
buildCfg(const Program &prog, LintResult &report)
{
    Cfg cfg;
    cfg.entry = prog.entry;
    std::set<Addr> leaders;
    std::vector<Addr> worklist{prog.entry};
    leaders.insert(prog.entry);
    if (!inImage(prog, prog.entry)) {
        report.add(Severity::Error, prog.entry, "cfg",
                   "entry point is outside the emitted program image");
        return cfg;
    }

    // Pass 1: discover every reachable instruction and every leader.
    while (!worklist.empty()) {
        const Addr pc = worklist.back();
        worklist.pop_back();
        if (cfg.insts.count(pc))
            continue;
        const DecodedInst di = decode(prog.word(pc));
        cfg.insts.emplace(pc, di);
        if (!di.valid()) {
            report.add(Severity::Error, pc, "cfg",
                       detail::vformat(
                           "reachable invalid instruction encoding "
                           "0x%08x: execution faults here",
                           di.raw));
            continue;
        }
        const Succs s = successors(pc, di);
        for (unsigned i = 0; i < s.n; ++i) {
            const Addr t = s.target[i];
            if (!inImage(prog, t)) {
                if (s.fallthrough && t == pc + 4)
                    report.add(
                        Severity::Error, pc, "cfg",
                        "execution can fall off the end of the "
                        "emitted image (missing ebreak?)");
                else
                    report.add(
                        Severity::Error, pc, "cfg",
                        detail::vformat("control transfer target "
                                        "0x%08x is outside the "
                                        "program image",
                                        t));
                continue;
            }
            if (t != pc + 4)
                leaders.insert(t);  // branch/jump/back-edge target
            worklist.push_back(t);
        }
        // The instruction after any control transfer starts a block.
        if (di.isControl() || di.op == Op::JAL || di.op == Op::JALR)
            leaders.insert(pc + 4);
    }

    // Pass 2: carve the reachable instructions into basic blocks.
    for (auto it = cfg.insts.begin(); it != cfg.insts.end(); ++it) {
        const Addr pc = it->first;
        const bool new_block =
            cfg.blocks.empty() || leaders.count(pc) ||
            cfg.blocks.back().last + 4 != pc;
        if (new_block) {
            BasicBlock bb;
            bb.id = static_cast<unsigned>(cfg.blocks.size());
            bb.first = bb.last = pc;
            cfg.blocks.push_back(bb);
            cfg.leader_index[pc] = bb.id;
        } else {
            cfg.blocks.back().last = pc;
        }
    }

    // Pass 3: block-level edges.
    for (BasicBlock &bb : cfg.blocks) {
        const DecodedInst &di = cfg.insts.at(bb.last);
        const Succs s = successors(bb.last, di);
        bb.unknown_succ = s.unknown;
        bb.call_fallthrough = s.call_return;
        for (unsigned i = 0; i < s.n; ++i) {
            if (cfg.leader_index.count(s.target[i]))
                bb.succs.push_back(s.target[i]);
        }
    }
    for (const BasicBlock &bb : cfg.blocks) {
        for (const Addr t : bb.succs)
            cfg.blocks[cfg.leader_index.at(t)].preds.push_back(bb.id);
    }
    return cfg;
}

void
checkUnreachable(const Cfg &cfg, const Program &prog, LintResult &report)
{
    for (const ProgramChunk &c : prog.chunks) {
        // Only chunks holding reachable code are treated as code; a
        // pure data chunk legitimately contains no instructions.
        auto lo = cfg.insts.lower_bound(c.base);
        if (lo == cfg.insts.end() || lo->first >= c.base + c.size)
            continue;
        Addr run_start = 0;
        unsigned run_len = 0;
        auto flush = [&]() {
            if (run_len > 0)
                report.add(
                    Severity::Warning, run_start, "cfg",
                    detail::vformat("unreachable code: %u "
                                    "instruction(s) no path from the "
                                    "entry point reaches",
                                    run_len));
            run_len = 0;
        };
        for (Addr pc = c.base; pc + 4 <= c.base + c.size; pc += 4) {
            // Runs of valid instructions only: zero padding and data
            // words that do not decode are not code.
            if (!cfg.reachable(pc) && decode(prog.word(pc)).valid()) {
                if (run_len == 0)
                    run_start = pc;
                ++run_len;
            } else {
                flush();
            }
        }
        flush();
    }
}

} // namespace diag::analysis
