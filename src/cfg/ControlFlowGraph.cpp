//===- cfg/ControlFlowGraph.cpp -------------------------------------------===//

#include "cfg/ControlFlowGraph.h"

#include <algorithm>

using namespace satb;

ControlFlowGraph::ControlFlowGraph(const Method &M) {
  const auto &Code = M.Instructions;
  const uint32_t N = static_cast<uint32_t>(Code.size());
  assert(N > 0 && "empty method has no CFG");
  assert(isTerminator(Code[N - 1].Op) &&
         "method must end with a terminator");

  // Find leaders: entry, branch targets, and fall-through points after
  // branches/returns.
  std::vector<bool> Leader(N, false);
  Leader[0] = true;
  for (uint32_t I = 0; I != N; ++I) {
    const Instruction &Ins = Code[I];
    if (isBranch(Ins.Op)) {
      assert(Ins.A >= 0 && static_cast<uint32_t>(Ins.A) < N &&
             "branch target out of range");
      Leader[static_cast<uint32_t>(Ins.A)] = true;
    }
    if ((isBranch(Ins.Op) || isReturn(Ins.Op)) && I + 1 < N)
      Leader[I + 1] = true;
  }

  // Materialize blocks.
  Blocks.reserve(
      static_cast<size_t>(std::count(Leader.begin(), Leader.end(), true)));
  InstrToBlock.resize(N);
  for (uint32_t I = 0; I != N;) {
    uint32_t End = I + 1;
    while (End < N && !Leader[End])
      ++End;
    BasicBlock B;
    B.Begin = I;
    B.End = End;
    uint32_t BlockIdx = static_cast<uint32_t>(Blocks.size());
    for (uint32_t J = I; J != End; ++J)
      InstrToBlock[J] = BlockIdx;
    Blocks.push_back(B);
    I = End;
  }

  // Wire successor/predecessor edges.
  for (uint32_t BI = 0, BE = numBlocks(); BI != BE; ++BI) {
    BasicBlock &B = Blocks[BI];
    const Instruction &Last = Code[B.End - 1];
    auto AddEdge = [&](uint32_t TargetInstr) {
      assert(B.NumSuccs < 2 && "a block has at most two successors");
      uint32_t Succ = InstrToBlock[TargetInstr];
      B.Succs[B.NumSuccs++] = Succ;
      ++Blocks[Succ].NumPreds;
    };
    if (isReturn(Last.Op))
      continue;
    if (isBranch(Last.Op))
      AddEdge(static_cast<uint32_t>(Last.A));
    if (!isTerminator(Last.Op)) {
      assert(B.End < N && "fall-through past end of method");
      AddEdge(B.End);
    }
  }

  // Reverse postorder via iterative DFS from the entry: RPO collects the
  // postorder, then flips in place.
  Reachable.assign(numBlocks(), false);
  RPO.reserve(numBlocks());
  // Stack entries: (block, next successor index to visit).
  std::vector<std::pair<uint32_t, uint32_t>> Stack;
  Stack.reserve(numBlocks());
  Reachable[0] = true;
  Stack.emplace_back(0, 0);
  while (!Stack.empty()) {
    auto &[BI, SuccIdx] = Stack.back();
    if (SuccIdx < Blocks[BI].NumSuccs) {
      uint32_t Succ = Blocks[BI].Succs[SuccIdx++];
      if (!Reachable[Succ]) {
        Reachable[Succ] = true;
        Stack.emplace_back(Succ, 0);
      }
      continue;
    }
    RPO.push_back(BI);
    Stack.pop_back();
  }
  std::reverse(RPO.begin(), RPO.end());
}
