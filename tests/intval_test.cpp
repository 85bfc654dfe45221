//===- tests/intval_test.cpp - Symbolic integer value domain --------------===//

#include "analysis/IntVal.h"

#include <gtest/gtest.h>

#include <vector>

using namespace satb;

TEST(IntVal, DefaultIsZeroConstant) {
  IntVal V;
  EXPECT_TRUE(V.isPureConstant());
  EXPECT_EQ(V.constTerm(), 0);
  EXPECT_EQ(V, IntVal::constant(0));
}

TEST(IntVal, ConstantArithmetic) {
  IntVal A = IntVal::constant(3), B = IntVal::constant(4);
  EXPECT_EQ((A + B).constTerm(), 7);
  EXPECT_EQ((A - B).constTerm(), -1);
  EXPECT_EQ(IntVal::mul(A, B).constTerm(), 12);
  EXPECT_EQ(A.negate().constTerm(), -3);
  EXPECT_EQ(A.addConstant(10).constTerm(), 13);
}

TEST(IntVal, TopAbsorbs) {
  IntVal T = IntVal::top();
  EXPECT_TRUE(T.isTop());
  EXPECT_TRUE((T + IntVal::constant(1)).isTop());
  EXPECT_TRUE((IntVal::constant(1) - T).isTop());
  EXPECT_TRUE(IntVal::mul(T, IntVal::constUnknown(0)).isTop());
  // Multiplying Top by the literal 0 is exactly 0.
  EXPECT_EQ(T.mulConstant(0), IntVal::constant(0));
}

TEST(IntVal, ConstUnknownLinearCombination) {
  IntVal C0 = IntVal::constUnknown(0);
  IntVal V = C0.mulConstant(2).addConstant(-1); // 2*c0 - 1
  EXPECT_FALSE(V.isPureConstant());
  EXPECT_TRUE(V.isVarFree());
  ASSERT_EQ(V.unknownTerms().size(), 1u);
  EXPECT_EQ(V.unknownTerms()[0].Id, 0u);
  EXPECT_EQ(V.unknownTerms()[0].Coeff, 2);
  EXPECT_EQ(V.constTerm(), -1);
  EXPECT_EQ(V.str(), "2*c0 - 1");
}

TEST(IntVal, UnknownTermsCancel) {
  IntVal C0 = IntVal::constUnknown(0);
  IntVal Diff = C0.mulConstant(2) - C0 - C0;
  EXPECT_TRUE(Diff.isPureConstant());
  EXPECT_EQ(Diff.constTerm(), 0);
}

TEST(IntVal, VariableTerm) {
  IntVal V = IntVal::variable(3);
  EXPECT_TRUE(V.hasVarTerm());
  EXPECT_EQ(V.var(), 3u);
  EXPECT_EQ(V.varCoeff(), 1);
  IntVal W = V + IntVal::constant(2);
  EXPECT_TRUE(W.hasVarTerm());
  EXPECT_EQ(W.constTerm(), 2);
}

TEST(IntVal, SameVariableAddsCoefficients) {
  IntVal V = IntVal::variable(1);
  IntVal Two = V + V;
  EXPECT_EQ(Two.varCoeff(), 2);
  IntVal Zero = V - V;
  EXPECT_FALSE(Zero.hasVarTerm());
  EXPECT_EQ(Zero, IntVal::constant(0));
}

TEST(IntVal, DifferentVariablesAddToTop) {
  IntVal A = IntVal::variable(1), B = IntVal::variable(2);
  EXPECT_TRUE((A + B).isTop());
  EXPECT_TRUE((A - B).isTop());
}

TEST(IntVal, MulOfTwoSymbolicsIsTop) {
  IntVal A = IntVal::constUnknown(0), B = IntVal::constUnknown(1);
  EXPECT_TRUE(IntVal::mul(A, B).isTop());
  // But a symbolic times a pure constant is exact.
  EXPECT_EQ(IntVal::mul(A, IntVal::constant(3)),
            A.mulConstant(3));
}

TEST(IntVal, SubstituteVar) {
  // 2*v1 + c0 + 1 with v1 := v2 + 3  ==>  2*v2 + c0 + 7
  IntVal V = IntVal::variable(1).mulConstant(2) + IntVal::constUnknown(0) +
             IntVal::constant(1);
  IntVal Replacement = IntVal::variable(2) + IntVal::constant(3);
  IntVal R = V.substituteVar(1, Replacement);
  EXPECT_EQ(R.var(), 2u);
  EXPECT_EQ(R.varCoeff(), 2);
  EXPECT_EQ(R.constTerm(), 7);
  // Substituting an unrelated variable is the identity.
  EXPECT_EQ(V.substituteVar(9, Replacement), V);
}

TEST(IntVal, EqualityIsStructural) {
  IntVal A = IntVal::constUnknown(0) + IntVal::constant(1);
  IntVal B = IntVal::constant(1) + IntVal::constUnknown(0);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, A.addConstant(1));
  EXPECT_NE(A, IntVal::top());
  EXPECT_EQ(IntVal::top(), IntVal::top());
}

TEST(IntVal, StrRendering) {
  EXPECT_EQ(IntVal::top().str(), "top");
  EXPECT_EQ(IntVal::constant(0).str(), "0");
  EXPECT_EQ(IntVal::constant(-4).str(), "-4");
  EXPECT_EQ(IntVal::variable(0).str(), "v0");
  EXPECT_EQ((IntVal::variable(0) + IntVal::constant(1)).str(), "v0 + 1");
}

namespace {

IntVal c(ConstUnknownId Id) { return IntVal::constUnknown(Id); }

using Terms = std::vector<std::pair<ConstUnknownId, int64_t>>;

/// The terms of \p V as (Id, Coeff) pairs, for comparing whole lists.
Terms terms(const IntVal &V) {
  Terms Out;
  for (const UnknownTerm &T : V.unknownTerms())
    Out.emplace_back(T.Id, T.Coeff);
  return Out;
}

/// Values with zero, one (inline) and two or three (spilled) terms.
std::vector<IntVal> termCountSamples() {
  return {IntVal::constant(7), c(0).addConstant(1),
          c(0) + c(1).mulConstant(2), c(0) + c(1) + c(2).addConstant(-3),
          IntVal::top(), IntVal::variable(4) + c(1) + c(3)};
}

} // namespace

TEST(IntVal, CopyMoveAndAssignAcrossInlineAndSpilled) {
  const std::vector<IntVal> Samples = termCountSamples();
  for (const IntVal &X : Samples)
    for (const IntVal &Y : Samples) {
      IntVal Copied(Y);
      EXPECT_EQ(Copied, Y);
      EXPECT_EQ(terms(Copied), terms(Y));

      IntVal Assigned = X;
      Assigned = Y;
      EXPECT_EQ(Assigned, Y);
      EXPECT_EQ(terms(Assigned), terms(Y));

      IntVal Source = Y;
      IntVal Moved(std::move(Source));
      EXPECT_EQ(Moved, Y);

      IntVal MoveTarget = X;
      IntVal MoveSource = Y;
      MoveTarget = std::move(MoveSource);
      EXPECT_EQ(MoveTarget, Y);
      EXPECT_EQ(terms(MoveTarget), terms(Y));
      // A moved-from value stays assignable.
      MoveSource = X;
      EXPECT_EQ(MoveSource, X);
    }
  for (IntVal V : Samples) {
    const IntVal Before = V;
    IntVal &Alias = V;
    V = Alias;
    EXPECT_EQ(V, Before);
  }
}

TEST(IntVal, TermsGrowThroughArithmetic) {
  IntVal V = IntVal::constant(5);
  EXPECT_EQ(V.unknownTerms().size(), 0u);
  V = V + c(1);
  EXPECT_EQ(terms(V), (Terms{{1, 1}}));
  V = V - c(0).mulConstant(2);
  EXPECT_EQ(terms(V), (Terms{{0, -2}, {1, 1}}));
  V = c(2).mulConstant(3) + V;
  EXPECT_EQ(terms(V), (Terms{{0, -2}, {1, 1}, {2, 3}}));
  EXPECT_EQ(V.constTerm(), 5);
  V = V.mulConstant(-2);
  EXPECT_EQ(terms(V), (Terms{{0, 4}, {1, -2}, {2, -6}}));
  EXPECT_EQ(V.constTerm(), -10);
  EXPECT_EQ(V.str(), "4*c0 - 2*c1 - 6*c2 - 10");
  EXPECT_EQ(V.mulConstant(0), IntVal::constant(0));
  EXPECT_TRUE(V.mulConstant(0).unknownTerms().empty());
  // Adding a term to a three-term value in sorted position.
  IntVal W = c(0) + c(2) + c(3) + c(1);
  EXPECT_EQ(terms(W), (Terms{{0, 1}, {1, 1}, {2, 1}, {3, 1}}));
}

TEST(IntVal, CanonicalizationShrinksSpilledTerms) {
  IntVal Three = c(0) + c(1) + c(2).addConstant(4);
  ASSERT_EQ(Three.unknownTerms().size(), 3u);
  IntVal One = Three - c(2) - c(0);
  EXPECT_EQ(terms(One), (Terms{{1, 1}}));
  EXPECT_EQ(One, c(1).addConstant(4));
  IntVal None = One - c(1);
  EXPECT_TRUE(None.isPureConstant());
  EXPECT_EQ(None, IntVal::constant(4));
  // Cancelling two spilled values down to one term in one step.
  IntVal Diff = (c(0) + c(1).mulConstant(2)) - (c(1).mulConstant(2) + c(3));
  EXPECT_EQ(terms(Diff), (Terms{{0, 1}, {3, -1}}));
  EXPECT_EQ(Diff + c(3), c(0));
  EXPECT_EQ(Diff.substituteVar(0, c(5)), Diff);
}

TEST(IntVal, EqualityAcrossInlineAndSpilled) {
  IntVal Spilled = c(0) + c(1);
  IntVal Inline = c(0);
  EXPECT_NE(Spilled, Inline);
  EXPECT_NE(Inline, Spilled);
  EXPECT_EQ(Spilled - c(1), Inline);
  EXPECT_EQ(c(1) + c(0), Spilled);
  EXPECT_NE(Spilled, c(0) + c(2));
  EXPECT_NE(Spilled, c(0) + c(1).mulConstant(2));
  EXPECT_NE(Spilled, Spilled.addConstant(1));
}

TEST(ConstUnknownRegistry, TracksNonNegativity) {
  ConstUnknownRegistry Reg;
  ConstUnknownId A = Reg.create(true);  // an array length
  ConstUnknownId B = Reg.create(false); // a plain int parameter
  EXPECT_TRUE(Reg.isNonNegative(A));
  EXPECT_FALSE(Reg.isNonNegative(B));
  EXPECT_FALSE(Reg.isNonNegative(99)); // unknown ids conservative
}

TEST(ProvablyNonNegative, Constants) {
  ConstUnknownRegistry Reg;
  EXPECT_TRUE(provablyNonNegative(IntVal::constant(0), Reg));
  EXPECT_TRUE(provablyNonNegative(IntVal::constant(5), Reg));
  EXPECT_FALSE(provablyNonNegative(IntVal::constant(-1), Reg));
  EXPECT_FALSE(provablyNonNegative(IntVal::top(), Reg));
  EXPECT_FALSE(provablyNonNegative(IntVal::variable(0), Reg));
}

TEST(ProvablyNonNegative, UnknownTerms) {
  ConstUnknownRegistry Reg;
  ConstUnknownId Len = Reg.create(true);
  ConstUnknownId Arg = Reg.create(false);
  // 2*len >= 0 holds; 2*len - 1 is not provable (len may be 0).
  EXPECT_TRUE(provablyNonNegative(IntVal::constUnknown(Len).mulConstant(2),
                                  Reg));
  EXPECT_FALSE(provablyNonNegative(
      IntVal::constUnknown(Len).mulConstant(2).addConstant(-1), Reg));
  // -len is not provable; neither is an arbitrary int parameter.
  EXPECT_FALSE(
      provablyNonNegative(IntVal::constUnknown(Len).mulConstant(-1), Reg));
  EXPECT_FALSE(provablyNonNegative(IntVal::constUnknown(Arg), Reg));
  // len + 3 >= 0 holds.
  EXPECT_TRUE(provablyNonNegative(
      IntVal::constUnknown(Len).addConstant(3), Reg));
}
