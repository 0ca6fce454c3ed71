/**
 * @file
 * Control-flow graph construction over an assembled program image.
 *
 * DiAG's premise is that program order plus register lanes *is* the
 * dataflow graph, so the CFG of the assembled binary statically
 * determines most properties the hardware otherwise discovers at run
 * time. This module recovers that CFG by recursive traversal from the
 * entry point: reachable instructions, basic blocks, and block-level
 * successor edges (including the simt_e back edge and call/return
 * edges), and reports structural defects — reachable invalid
 * encodings, control flow leaving the emitted image, execution falling
 * off the end of a chunk, and unreachable code.
 */
#ifndef DIAG_ANALYSIS_CFG_HPP
#define DIAG_ANALYSIS_CFG_HPP

#include <map>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "asm/program.hpp"
#include "isa/inst.hpp"

namespace diag::analysis
{

/** One basic block of reachable straight-line code. */
struct BasicBlock
{
    unsigned id = 0;
    Addr first = 0;  //!< pc of the first instruction
    Addr last = 0;   //!< pc of the last instruction
    /** Leader pcs of the known successor blocks. */
    std::vector<Addr> succs;
    /** Block ids of the known predecessors. */
    std::vector<unsigned> preds;
    /**
     * The block ends in an indirect transfer (jalr): its full
     * successor set is statically unknown and analyses must treat its
     * out-state conservatively.
     */
    bool unknown_succ = false;
    /**
     * True when the edge to the textual fall-through leader models a
     * call returning (jal/jalr with a link register): the callee may
     * clobber or define anything between the two blocks.
     */
    bool call_fallthrough = false;

    unsigned
    size() const
    {
        return static_cast<unsigned>((last - first) / 4 + 1);
    }
};

/** The recovered control-flow graph. */
struct Cfg
{
    /** The traversal root (the program's entry point). */
    Addr entry = 0;
    /** Every reachable instruction, decoded, keyed by pc. */
    std::map<Addr, isa::DecodedInst> insts;
    /** Basic blocks sorted by start address. */
    std::vector<BasicBlock> blocks;
    /** Block leader pc -> index into blocks. */
    std::map<Addr, unsigned> leader_index;

    bool reachable(Addr pc) const { return insts.count(pc) != 0; }
};

/**
 * Build the CFG of @p prog by traversal from its entry point,
 * reporting structural errors (reachable invalid instructions, control
 * flow leaving the image, falling off the end of a chunk) into
 * @p report.
 */
Cfg buildCfg(const Program &prog, LintResult &report);

/**
 * Report unreachable code: maximal runs of valid instructions inside
 * chunks that contain reachable code but that no path from the entry
 * reaches. Data chunks (no reachable code) and zero padding are not
 * reported.
 */
void checkUnreachable(const Cfg &cfg, const Program &prog,
                      LintResult &report);

} // namespace diag::analysis

#endif // DIAG_ANALYSIS_CFG_HPP
