//===- tests/cfg_test.cpp - Control-flow graph construction ---------------===//

#include "cfg/ControlFlowGraph.h"

#include "bytecode/MethodBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

using namespace satb;

// Blocks hold no heap memory: a CFG is one flat array of them.
static_assert(std::is_trivially_copyable_v<BasicBlock>);

namespace {

Method buildDiamond(Program &P) {
  // if (arg) x = 1 else x = 2; return x
  MethodBuilder B(P, "diamond", {JType::Int}, JType::Int);
  Local X = B.newLocal(JType::Int);
  Label Else = B.newLabel(), End = B.newLabel();
  B.iload(B.arg(0)).ifeq(Else);   // B0: 0,1
  B.iconst(1).istore(X).jump(End); // B1: 2,3,4
  B.bind(Else).iconst(2).istore(X); // B2: 5,6
  B.bind(End).iload(X).ireturn();   // B3: 7,8
  return P.method(B.finish());
}

} // namespace

TEST(CFG, StraightLineIsOneBlock) {
  Program P;
  MethodBuilder B(P, "f", {}, std::nullopt);
  B.iconst(1).pop().iconst(2).pop().ret();
  ControlFlowGraph CFG(P.method(B.finish()));
  EXPECT_EQ(CFG.numBlocks(), 1u);
  EXPECT_EQ(CFG.block(0).Begin, 0u);
  EXPECT_EQ(CFG.block(0).End, 5u);
  EXPECT_TRUE(CFG.block(0).succs().empty());
}

TEST(CFG, DiamondShape) {
  Program P;
  Method M = buildDiamond(P);
  ControlFlowGraph CFG(M);
  ASSERT_EQ(CFG.numBlocks(), 4u);
  // Entry has two successors: taken (else) first, then fall-through.
  ASSERT_EQ(CFG.block(0).NumSuccs, 2u);
  EXPECT_EQ(CFG.block(0).Succs[0], CFG.blockOf(5)); // taken edge
  EXPECT_EQ(CFG.block(0).Succs[1], CFG.blockOf(2)); // fall-through
  // Join block has two predecessors.
  uint32_t Join = CFG.blockOf(7);
  EXPECT_EQ(CFG.block(Join).NumPreds, 2u);
  EXPECT_TRUE(CFG.block(Join).succs().empty());
}

TEST(CFG, LoopBackEdge) {
  Program P;
  MethodBuilder B(P, "loop", {JType::Int}, std::nullopt);
  Local I = B.newLocal(JType::Int);
  Label Head = B.newLabel(), Done = B.newLabel();
  B.iconst(0).istore(I);                        // B0
  B.bind(Head).iload(I).iload(B.arg(0)).ifICmpGe(Done); // B1
  B.iinc(I, 1).jump(Head);                      // B2
  B.bind(Done).ret();                           // B3
  ControlFlowGraph CFG(P.method(B.finish()));
  ASSERT_EQ(CFG.numBlocks(), 4u);
  uint32_t Head_B = CFG.blockOf(2), Body = CFG.blockOf(5);
  // The head has two predecessors: entry and the back edge.
  EXPECT_EQ(CFG.block(Head_B).NumPreds, 2u);
  ASSERT_EQ(CFG.block(Body).NumSuccs, 1u);
  EXPECT_EQ(CFG.block(Body).Succs[0], Head_B);
}

TEST(CFG, InstrToBlockMapping) {
  Program P;
  Method M = buildDiamond(P);
  ControlFlowGraph CFG(M);
  for (uint32_t I = 0; I != M.Instructions.size(); ++I) {
    uint32_t B = CFG.blockOf(I);
    EXPECT_GE(I, CFG.block(B).Begin);
    EXPECT_LT(I, CFG.block(B).End);
  }
}

TEST(CFG, ReversePostOrderVisitsPredsFirstInAcyclic) {
  Program P;
  Method M = buildDiamond(P);
  ControlFlowGraph CFG(M);
  const std::vector<uint32_t> &RPO = CFG.reversePostOrder();
  ASSERT_EQ(RPO.size(), 4u);
  EXPECT_EQ(RPO.front(), 0u);
  auto Pos = [&RPO](uint32_t B) {
    return std::find(RPO.begin(), RPO.end(), B) - RPO.begin();
  };
  // In an acyclic graph every predecessor precedes its successor.
  for (uint32_t B = 0; B != CFG.numBlocks(); ++B)
    for (uint32_t S : CFG.block(B).succs())
      EXPECT_LT(Pos(B), Pos(S));
}

TEST(CFG, UnreachableBlockExcludedFromRPO) {
  Program P;
  MethodBuilder B(P, "f", {}, JType::Int);
  Label Tail = B.newLabel();
  B.iconst(1).jump(Tail); // B0: 0,1
  B.iconst(9).pop();      // B1: dead code 2,3
  B.bind(Tail).ireturn(); // B2: 4
  ControlFlowGraph CFG(P.method(B.finish()));
  ASSERT_EQ(CFG.numBlocks(), 3u);
  uint32_t Dead = CFG.blockOf(2);
  EXPECT_FALSE(CFG.isReachable(Dead));
  EXPECT_TRUE(CFG.isReachable(0));
  for (uint32_t BI : CFG.reversePostOrder())
    EXPECT_NE(BI, Dead);
}

TEST(CFG, ConditionalBranchToNextInstruction) {
  // A degenerate conditional whose target equals its fall-through: the
  // successor must appear twice (two edges).
  Program P;
  MethodBuilder B(P, "f", {JType::Int}, std::nullopt);
  Label Next = B.newLabel();
  B.iload(B.arg(0)).ifeq(Next);
  B.bind(Next).ret();
  ControlFlowGraph CFG(P.method(B.finish()));
  ASSERT_EQ(CFG.numBlocks(), 2u);
  EXPECT_EQ(CFG.block(0).NumSuccs, 2u);
  EXPECT_EQ(CFG.block(1).NumPreds, 2u);
}
