/**
 * @file
 * The analyzers' one symbolic lane algebra.
 *
 * DiAG's register lanes make every address a short base-plus-offset
 * chain that can be read off the binary (paper §5.2). This header
 * value-numbers those chains for memdep (diag-lint's store-to-load
 * pass, whose tables diag-verify and diag-bound read) and for
 * diag-stream. Every lane holds
 *
 *     scale*term + rc*i + tid*t + off
 *
 * where `term` is an opaque symbolic value, `i` is the scope's
 * induction index (the rc lane of a simt region, the iteration counter
 * of a serial loop) and `t` is the a0 lane as the scope entered it.
 * LUI, AUIPC, ADDI, ADD, SUB and SLLI stay in that form; a sum of two
 * based values is one memoized term whatever the operand order. Any
 * other result, and every loaded value, is a new opaque term that
 * remembers its load depth, feeding load, derivation parent and
 * whether it is fixed across iterations. Each caller seeds its own
 * axes after seed(): memdep the region's rc lane, diag-stream also the
 * a0 thread-id axis.
 */
#ifndef DIAG_ANALYSIS_SYMVAL_HPP
#define DIAG_ANALYSIS_SYMVAL_HPP

#include <algorithm>
#include <array>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "asm/program.hpp"
#include "isa/decoder.hpp"

namespace diag::analysis
{

/**
 * One lane value `scale*term(base) + rc*i + tid*t + off`. base 0 means
 * no opaque part, and then scale is 1.
 */
struct SymVal
{
    u32 base = 0;
    i64 scale = 1;
    i64 rc = 0;
    i64 tid = 0;
    i64 off = 0;

    /** Same entry-fixed part (term, scale, tid): the two values
     *  differ by `(rc - o.rc)*i + (off - o.off)`. */
    bool
    sameBase(const SymVal &o) const
    {
        return base == o.base && scale == o.scale && tid == o.tid;
    }
};

/** Provenance of one opaque term. */
struct TermMeta
{
    unsigned depth = 0; //!< loads on the derivation chain
    Addr feeder_pc = 0; //!< deepest producing load (0 = none)
    u32 parent = 0;     //!< term the derivation chain continues through
    bool invariant = true; //!< fixed across iterations of the scope
};

/** Value-numbering state over the unified lane file. */
struct SymState
{
    std::array<SymVal, isa::kNumRegs> reg{};
    std::vector<TermMeta> meta{TermMeta{}}; //!< meta[0] unused
    /** (term,scale,term,scale) -> combined term, so two computations
     *  of the same two-base sum compare equal. */
    std::map<std::tuple<u32, i64, u32, i64>, u32> combined;

    u32
    newTerm(const TermMeta &m)
    {
        meta.push_back(m);
        return static_cast<u32>(meta.size() - 1);
    }

    /**
     * Start a scope: register r holds its own invariant term r (x0
     * stays 0). The term table and the sum memo restart, so reseeding
     * costs the same in every scope, and diag-verify can read term r
     * as register r's value at scope entry.
     */
    void
    seed()
    {
        meta.resize(1);
        combined.clear();
        for (unsigned r = 1; r < isa::kNumRegs; ++r)
            reg[r] = {newTerm({}), 1, 0, 0, 0};
    }

    SymVal
    read(isa::RegId r) const
    {
        if (r == isa::kNoReg || r == isa::kRegZero)
            return {};
        return reg[r];
    }

    /** The value is provably the same in every iteration/thread. */
    bool
    valInvariant(const SymVal &v) const
    {
        return v.rc == 0 && v.tid == 0 &&
               (v.base == 0 || meta[v.base].invariant);
    }

    unsigned
    depthOf(const SymVal &v) const
    {
        return v.base ? meta[v.base].depth : 0;
    }

    Addr
    feederOf(const SymVal &v) const
    {
        return v.base ? meta[v.base].feeder_pc : 0;
    }

    /** Result of an operation outside the address algebra. */
    SymVal
    opaque(const SymVal &a, const SymVal &b)
    {
        TermMeta m;
        const unsigned da = depthOf(a);
        const unsigned db = depthOf(b);
        m.depth = std::max(da, db);
        m.feeder_pc = da >= db ? feederOf(a) : feederOf(b);
        m.parent = da >= db ? a.base : b.base;
        m.invariant = valInvariant(a) && valInvariant(b);
        return {newTerm(m), 1, 0, 0, 0};
    }

    /** A loaded value: one load deeper than its address, with the
     *  load as feeder, and different in every iteration. */
    SymVal
    loaded(const SymVal &addr, Addr pc)
    {
        return {newTerm({depthOf(addr) + 1, pc, addr.base, false}), 1,
                0, 0, 0};
    }

    /** Combined term for `sa*term(ta) + sb*term(tb)` (ADD of two
     *  based values), memoized for equality of repeated sums. */
    u32
    combine(u32 ta, i64 sa, u32 tb, i64 sb)
    {
        if (ta > tb || (ta == tb && sa > sb)) {
            std::swap(ta, tb);
            std::swap(sa, sb);
        }
        const auto key = std::make_tuple(ta, sa, tb, sb);
        const auto it = combined.find(key);
        if (it != combined.end())
            return it->second;
        TermMeta m;
        const TermMeta &ma = meta[ta];
        const TermMeta &mb = meta[tb];
        m.depth = std::max(ma.depth, mb.depth);
        m.feeder_pc = ma.depth >= mb.depth ? ma.feeder_pc : mb.feeder_pc;
        m.parent = ma.depth >= mb.depth ? ta : tb;
        m.invariant = ma.invariant && mb.invariant;
        const u32 t = newTerm(m);
        combined.emplace(key, t);
        return t;
    }

    /** Bottom of the derivation chain (a seed term). */
    u32
    chainRoot(u32 t) const
    {
        while (t != 0 && meta[t].parent != 0)
            t = meta[t].parent;
        return t;
    }

    /**
     * Transfer function: update the lanes for @p di at @p pc. The
     * address-forming subset stays linear; a load mints a loaded()
     * term (the backbone of indirect/chase detection), and everything
     * else an opaque() one.
     */
    void
    step(Addr pc, const isa::DecodedInst &di)
    {
        using isa::Op;
        if (!di.writesReg())
            return;
        const SymVal a = read(di.rs1);
        const SymVal b = read(di.rs2);
        SymVal out;
        switch (di.op) {
          case Op::LUI:
            out.off = static_cast<u32>(di.imm);
            break;
          case Op::AUIPC:
            out.off = pc + static_cast<u32>(di.imm);
            break;
          case Op::ADDI:
            out = a;
            out.off += di.imm;
            break;
          case Op::ADD:
            if (a.base == 0)
                out = {b.base, b.scale, a.rc + b.rc, a.tid + b.tid,
                       a.off + b.off};
            else if (b.base == 0)
                out = {a.base, a.scale, a.rc + b.rc, a.tid + b.tid,
                       a.off + b.off};
            else
                out = {combine(a.base, a.scale, b.base, b.scale), 1,
                       a.rc + b.rc, a.tid + b.tid, a.off + b.off};
            break;
          case Op::SUB:
            if (b.base == 0) {
                out = a;
                out.rc -= b.rc;
                out.tid -= b.tid;
                out.off -= b.off;
            } else if (a.base == b.base && a.scale == b.scale) {
                out = {0, 1, a.rc - b.rc, a.tid - b.tid, a.off - b.off};
            } else {
                out = opaque(a, b);
            }
            break;
          case Op::SLLI:
            if (di.imm >= 0 && di.imm < 32)
                out = {a.base, a.base ? a.scale << di.imm : 1,
                       a.rc << di.imm, a.tid << di.imm, a.off << di.imm};
            else
                out = opaque(a, b);
            break;
          default:
            out = di.isLoad() ? loaded(a, pc) : opaque(a, b);
            break;
        }
        reg[di.rd] = out;
    }
};

/** One memory access with its reconstructed address value. */
struct MemAccess
{
    Addr pc = 0;
    SymVal ea;
    u8 size = 0;
    bool is_store = false;
};

/** Walk [first, last] through @p st, collecting the memory accesses. */
inline std::vector<MemAccess>
walkRange(SymState &st, const Program &prog, Addr first, Addr last)
{
    std::vector<MemAccess> body;
    for (Addr pc = first; pc <= last; pc += 4) {
        const isa::DecodedInst di = isa::decode(prog.word(pc));
        if (di.isMem()) {
            MemAccess m{pc, st.read(di.rs1), di.info().memBytes,
                        di.isStore()};
            m.ea.off += di.imm;
            body.push_back(m);
        }
        st.step(pc, di);
    }
    return body;
}

} // namespace diag::analysis

#endif // DIAG_ANALYSIS_SYMVAL_HPP
