//===- cfg/ControlFlowGraph.h - Basic blocks and edges ---------*- C++ -*-===//
///
/// \file
/// Basic-block decomposition of a Method, the skeleton over which the
/// paper's iterative dataflow analysis runs ("this pass analyzes basic
/// blocks with modified start states, propagating changes to successor
/// blocks, until a fixed point is reached", Section 2).
///
//===----------------------------------------------------------------------===//

#ifndef SATB_CFG_CONTROLFLOWGRAPH_H
#define SATB_CFG_CONTROLFLOWGRAPH_H

#include "bytecode/Program.h"

#include <span>
#include <vector>

namespace satb {

/// A maximal straight-line instruction range [Begin, End). Holds no heap
/// memory: a block ends in at most one branch, so it has at most two
/// successors (the branch target, then the fall-through), and the
/// analysis needs only the number of predecessors.
struct BasicBlock {
  uint32_t Begin = 0;
  uint32_t End = 0; ///< exclusive
  /// Edges into the block; a conditional branch to its own fall-through
  /// counts twice.
  uint32_t NumPreds = 0;
  uint32_t NumSuccs = 0;
  uint32_t Succs[2] = {0, 0};

  std::span<const uint32_t> succs() const { return {Succs, NumSuccs}; }
};

/// The control-flow graph of one method. Block 0 is the entry block
/// (methods start at instruction 0). Unreachable blocks are retained but
/// excluded from the reverse postorder.
class ControlFlowGraph {
public:
  /// Builds the CFG of \p M. \p M must be branch-consistent (all targets in
  /// range and the last instruction a terminator); MethodBuilder guarantees
  /// this and the verifier re-checks it.
  explicit ControlFlowGraph(const Method &M);

  uint32_t numBlocks() const { return static_cast<uint32_t>(Blocks.size()); }
  const BasicBlock &block(uint32_t I) const { return Blocks[I]; }

  /// \returns the block containing instruction \p InstrIdx.
  uint32_t blockOf(uint32_t InstrIdx) const {
    assert(InstrIdx < InstrToBlock.size() && "instruction out of range");
    return InstrToBlock[InstrIdx];
  }

  /// Reverse postorder over reachable blocks, starting at the entry.
  const std::vector<uint32_t> &reversePostOrder() const { return RPO; }

  /// \returns true if \p BlockIdx is reachable from the entry.
  bool isReachable(uint32_t BlockIdx) const { return Reachable[BlockIdx]; }

private:
  std::vector<BasicBlock> Blocks;
  std::vector<uint32_t> InstrToBlock;
  std::vector<uint32_t> RPO;
  std::vector<bool> Reachable;
};

} // namespace satb

#endif // SATB_CFG_CONTROLFLOWGRAPH_H
