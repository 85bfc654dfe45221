//===- analysis/StateMerger.cpp -------------------------------------------===//

#include "analysis/StateMerger.h"

using namespace satb;

std::optional<IntVal> StateMerger::match(const IntVal &I1, const IntVal &I2) {
  assert(I1.hasVarTerm() && "match requires a variable term in i1");
  // i1 = a1*v1 + r1. The paper's match succeeds when i2 = a1*v2 + r2 with
  // the same coefficient, expressing v1 as v2 + (r2 - r1)/a1. We also
  // accept a variable-free i2, expressing v1 as the constant expression
  // (i2 - r1)/a1 — v1 simply has a fixed value in the incoming state (the
  // creation step records exactly such constant substitutions in mu1/mu2).
  // Division must be exact over every term.
  int64_t A1 = I1.varCoeff();
  if (I2.hasVarTerm() && I2.varCoeff() != A1)
    return std::nullopt;
  IntVal R1 = I1.substituteVar(I1.var(), IntVal::constant(0));
  IntVal R2 = I2.hasVarTerm()
                  ? I2.substituteVar(I2.var(), IntVal::constant(0))
                  : I2;
  IntVal Diff = R2 - R1;
  assert(!Diff.isTop() && Diff.isVarFree() && "residues must be linear");
  if (Diff.constTerm() % A1 != 0)
    return std::nullopt;
  for (const UnknownTerm &T : Diff.unknownTerms())
    if (T.Coeff % A1 != 0)
      return std::nullopt;
  IntVal Scaled = IntVal::constant(Diff.constTerm() / A1);
  for (const UnknownTerm &T : Diff.unknownTerms())
    Scaled = Scaled + IntVal::constUnknown(T.Id).mulConstant(T.Coeff / A1);
  if (!I2.hasVarTerm())
    return Scaled;
  return IntVal::variable(I2.var()) + Scaled;
}

IntVal StateMerger::mergeIntVals(const IntVal &I1, const IntVal &I2) {
  if (I1.isTop() || I2.isTop())
    return IntVal::top();
  if (I1 == I2)
    return I1;
  if (Widen)
    return IntVal::top();
  return mergeIntValsImpl(I1, I2, Mu1, Mu2);
}

IntVal StateMerger::mergeIntValsImpl(IntVal I1, IntVal I2, Subst &M1,
                                     Subst &M2) {
  // Figure 1 lines 8-9: ensure the variable-bearing value, if only one has
  // a variable, is i1 (swapping the substitution roles with it).
  if (!I1.hasVarTerm() && I2.hasVarTerm())
    return mergeIntValsImpl(std::move(I2), std::move(I1), M2, M1);

  IntVal Delta = I2 - I1;
  if (Delta.isPureConstant() && !I1.hasVarTerm()) {
    // Lines 11-19: both values are variable-free and differ by the literal
    // constant stride Delta.
    int64_t D = Delta.constTerm();
    auto It = StrideVars.find(D);
    if (It == StrideVars.end()) {
      VarId V = Vars.allocate();
      if (V == NoVar)
        return IntVal::top();
      StrideVars.emplace(D, V);
      M1.emplace(V, I1);
      M2.emplace(V, I2);
      return IntVal::variable(V);
    }
    // A variable for this stride exists; express this component as an
    // offset from the variable's anchor value in state 1.
    VarId V = It->second;
    auto Anchor = M1.find(V);
    if (Anchor == M1.end())
      return IntVal::top();
    IntVal Offset = I1 - Anchor->second;
    if (!Offset.isVarFree())
      return IntVal::top();
    return IntVal::variable(V) + Offset;
  }

  if (I1.hasVarTerm()) {
    // Lines 21-31: i1 carries variable v1.
    VarId V1 = I1.var();
    auto It = M2.find(V1);
    if (It != M2.end()) {
      // A substitution for v1 already exists in state 2; the merge keeps
      // i1 only if the substitution reconciles the two values.
      if (I1.substituteVar(V1, It->second) == I2)
        return I1;
      return IntVal::top();
    }
    if (std::optional<IntVal> S = match(I1, I2)) {
      M2.emplace(V1, std::move(*S));
      return I1;
    }
    return IntVal::top();
  }

  return IntVal::top();
}

namespace {

/// The non-Figure-1 integer merge used for sigma entries and Len (only
/// rho/stk integers and NR bounds are "integer state components" per
/// Section 3.5).
IntVal simpleIntMerge(const IntVal &A, const IntVal &B) {
  return A == B ? A : IntVal::top();
}

/// \returns true if Full range \p R covers its array's top end: hi + 1 ==
/// the array length known in the same state.
bool fromEquivalent(const IntRange &R, const IntVal &Len) {
  return R.kind() == IntRange::Kind::Full && !Len.isTop() &&
         R.hi().addConstant(1) == Len;
}

/// \returns true if Full range \p R starts at index 0.
bool toEquivalent(const IntRange &R) {
  return R.kind() == IntRange::Kind::Full && R.lo() == IntVal::constant(0);
}

} // namespace

IntRange StateMerger::mergeRanges(const IntRange &R1, const IntRange &R2) {
  // Callers pre-resolved the per-state array lengths into the bounds where
  // needed; this overload only merges like kinds (see merge()).
  if (R1.isEmpty() || R2.isEmpty())
    return IntRange::empty();

  using K = IntRange::Kind;
  if (R1.kind() == K::Full && R2.kind() == K::Full) {
    IntVal Lo = mergeIntVals(R1.lo(), R2.lo());
    IntVal Hi = mergeIntVals(R1.hi(), R2.hi());
    if (!Lo.isTop() && !Hi.isTop())
      return IntRange::full(std::move(Lo), std::move(Hi));
    return IntRange::empty();
  }
  if (R1.kind() == K::From && R2.kind() == K::From) {
    IntVal Lo = mergeIntVals(R1.lo(), R2.lo());
    return Lo.isTop() ? IntRange::empty() : IntRange::from(std::move(Lo));
  }
  if (R1.kind() == K::To && R2.kind() == K::To) {
    IntVal Hi = mergeIntVals(R1.hi(), R2.hi());
    return Hi.isTop() ? IntRange::empty() : IntRange::to(std::move(Hi));
  }
  return IntRange::empty();
}

bool StateMerger::merge(AnalysisState &Stored, const AnalysisState &Incoming) {
  assert(Stored.Locals.size() == Incoming.Locals.size() &&
         "local counts disagree");
  assert(Stored.Stack.size() == Incoming.Stack.size() &&
         "operand stacks disagree at join point");
  bool Changed = false;
  auto FigMerge = [this](const IntVal &A, const IntVal &B) {
    return mergeIntVals(A, B);
  };

  for (size_t I = 0, E = Stored.Locals.size(); I != E; ++I)
    Changed |= Stored.Locals[I].mergeFrom(Incoming.Locals[I], FigMerge);
  for (size_t I = 0, E = Stored.Stack.size(); I != E; ++I)
    Changed |= Stored.Stack[I].mergeFrom(Incoming.Stack[I], FigMerge);

  Changed |= Stored.NL.unionWith(Incoming.NL);

  // Young merges by intersection: a reference is young at a join only if
  // it is young on every path into it (a may-have-survived-a-GC reference
  // must not skip the remembered-set barrier).
  Changed |= Stored.Young.intersectWith(Incoming.Young);

  // sigma: pointwise, absent keys acting as Bottom. One linear walk per
  // map (see FlatMap::mergeWith).
  Changed |= Stored.Store.mergeWith(
      Incoming.Store,
      [](const StoreKey &, AbstractValue &S, const AbstractValue &I) {
        return S.mergeFrom(I, simpleIntMerge);
      });

  // Len: structural merge (equal or Top).
  Changed |= Stored.Len.mergeWith(
      Incoming.Len, [](RefId, IntVal &S, const IntVal &I) {
        IntVal Merged = simpleIntMerge(S, I);
        if (Merged == S)
          return false;
        S = std::move(Merged);
        return true;
      });

  // NR: like kinds merge bound-wise; a Full range mixes with a half-open
  // range only when it is equivalent to that half-open form (a Full range
  // reaching its array's last index equals a From range; one starting at 0
  // equals a To range). This is the merge of the paper's expand example:
  // Full[0..2c0-1] (with Len = 2c0) merged with From[1..] gives From[v..].
  // Runs after the Len merge so Stored.lenOf sees the merged lengths, as
  // the map-based merge always did.
  Changed |= Stored.NR.mergeWith(
      Incoming.NR,
      [&](RefId Ref, IntRange &SR, const IntRange &R2In) {
        IntRange R1 = SR;
        IntRange R2 = R2In;
        using K = IntRange::Kind;
        if (R1.kind() != R2.kind() && !R1.isEmpty() && !R2.isEmpty()) {
          // Try to reconcile a Full with the other side's half-open kind.
          if (R1.kind() == K::Full) {
            if (R2.kind() == K::From && fromEquivalent(R1, Stored.lenOf(Ref)))
              R1 = IntRange::from(R1.lo());
            else if (R2.kind() == K::To && toEquivalent(R1))
              R1 = IntRange::to(R1.hi());
          } else if (R2.kind() == K::Full) {
            if (R1.kind() == K::From &&
                fromEquivalent(R2, Incoming.lenOf(Ref)))
              R2 = IntRange::from(R2.lo());
            else if (R1.kind() == K::To && toEquivalent(R2))
              R2 = IntRange::to(R2.hi());
          }
        }
        IntRange Merged = R1.kind() == R2.kind() ? mergeRanges(R1, R2)
                                                 : IntRange::empty();
        if (Merged == SR)
          return false;
        SR = std::move(Merged);
        return true;
      });

  // Null-or-same facts merge by intersection.
  if (!Stored.Facts.empty()) {
    std::vector<NosFact> Kept;
    Kept.reserve(Stored.Facts.size());
    for (const NosFact &F : Stored.Facts)
      if (Incoming.hasFact(F.BaseLocal, F.Field))
        Kept.push_back(F);
    if (Kept != Stored.Facts) {
      Stored.Facts = std::move(Kept);
      Changed = true;
    }
  }

  return Changed;
}
