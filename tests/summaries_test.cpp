//===- tests/summaries_test.cpp - Pure-reader callee summaries ------------===//
///
/// \file
/// Tests the interprocedural pure-reader summaries (the first step toward
/// the integrated framework of the paper's Section 6): calls to callees
/// that transitively perform no stores and return nothing reference-typed
/// neither escape their arguments nor invalidate null-or-same state.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

using namespace satb;
using namespace satb::testutil;

namespace {

/// Adds `int probe(Object o) { return o == null ? 0 : 1; }` — a pure
/// reader with a reference argument.
MethodId addProbe(Program &P, const char *Name) {
  MethodBuilder B(P, Name, {JType::Ref}, JType::Int);
  Label IsNull = B.newLabel();
  B.aload(B.arg(0)).ifnull(IsNull);
  B.iconst(1).ireturn();
  B.bind(IsNull).iconst(0).ireturn();
  return B.finish();
}

} // namespace

TEST(Summaries, PureCallDoesNotEscapeArgument) {
  PairFixture F;
  MethodId Probe = addProbe(F.P, "probe");
  MethodBuilder B(F.P, "f", {}, std::nullopt);
  Local Pv = B.newLocal(JType::Ref);
  B.newInstance(F.Pair).astore(Pv);
  B.aload(Pv).invoke(Probe).pop();     // pure: no escape
  B.aload(Pv).aload(Pv).putfield(F.A); // still elidable
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_TRUE(site(R, 0).Elide);
  runChecked(F.P, F.P.findMethod("f"), {});
}

TEST(Summaries, DisabledFlagRestoresConservatism) {
  PairFixture F;
  MethodId Probe = addProbe(F.P, "probe");
  MethodBuilder B(F.P, "f", {JType::Ref}, std::nullopt);
  Local Pv = B.newLocal(JType::Ref);
  B.newInstance(F.Pair).astore(Pv);
  B.aload(Pv).invoke(Probe).pop();
  B.aload(Pv).aload(B.arg(0)).putfield(F.A);
  B.ret();
  B.finish();
  AnalysisConfig Cfg;
  Cfg.UseCalleeSummaries = false;
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"), Cfg);
  EXPECT_FALSE(site(R, 0).Elide);
}

TEST(Summaries, AnyStoreMakesCalleeImpure) {
  PairFixture F;
  MethodBuilder Callee(F.P, "writer", {JType::Ref}, std::nullopt);
  Callee.aload(Callee.arg(0)).aconstNull().putfield(F.A);
  Callee.ret();
  MethodId Writer = Callee.finish();
  MethodBuilder B(F.P, "f", {JType::Ref}, std::nullopt);
  Local Pv = B.newLocal(JType::Ref);
  B.newInstance(F.Pair).astore(Pv);
  B.aload(Pv).invoke(Writer);
  B.aload(Pv).aload(B.arg(0)).putfield(F.B); // arg escaped: kept
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  // The test site is the caller's putfield (writer's own site elides
  // within writer's compilation; here only the caller's body is analyzed).
  EXPECT_FALSE(site(R, 0).Elide);
}

TEST(Summaries, RefReturningCalleeImpure) {
  // Returning a reference could alias the argument, so such callees are
  // never summarized as pure.
  PairFixture F;
  MethodBuilder Callee(F.P, "identity", {JType::Ref}, JType::Ref);
  Callee.aload(Callee.arg(0)).areturn();
  MethodId Id = Callee.finish();
  MethodBuilder B(F.P, "f", {JType::Ref}, std::nullopt);
  Local Pv = B.newLocal(JType::Ref);
  B.newInstance(F.Pair).astore(Pv);
  B.aload(Pv).invoke(Id).pop();
  B.aload(Pv).aload(B.arg(0)).putfield(F.A);
  B.ret();
  B.finish();
  AnalysisResult R = analyze(F.P, F.P.findMethod("f"));
  EXPECT_FALSE(site(R, 0).Elide);
}

TEST(Summaries, TransitivePurity) {
  PairFixture F;
  MethodId Leaf = addProbe(F.P, "leaf");
  // mid calls leaf: still pure.
  MethodBuilder Mid(F.P, "mid", {JType::Ref}, JType::Int);
  Mid.aload(Mid.arg(0)).invoke(Leaf).ireturn();
  MethodId MidId = Mid.finish();
  // dirty calls mid but also writes a static: impure.
  MethodBuilder Dirty(F.P, "dirty", {JType::Ref}, JType::Int);
  Dirty.aload(Dirty.arg(0)).putstatic(F.Sink);
  Dirty.aload(Dirty.arg(0)).invoke(MidId).ireturn();
  MethodId DirtyId = Dirty.finish();

  auto ElideAfterCall = [&](MethodId Callee, const char *Name) {
    MethodBuilder B(F.P, Name, {JType::Ref}, std::nullopt);
    Local Pv = B.newLocal(JType::Ref);
    B.newInstance(F.Pair).astore(Pv);
    B.aload(Pv).invoke(Callee).pop();
    B.aload(Pv).aload(B.arg(0)).putfield(F.A);
    B.ret();
    B.finish();
    AnalysisResult R = analyze(F.P, F.P.findMethod(Name));
    return site(R, 0).Elide;
  };
  EXPECT_TRUE(ElideAfterCall(MidId, "viaMid"));
  EXPECT_FALSE(ElideAfterCall(DirtyId, "viaDirty"));
}

TEST(Summaries, RecursivePureReader) {
  PairFixture F;
  // depth(o, n) = n == 0 ? 0 : depth(o, n-1) + 1 — pure despite recursion.
  MethodId SelfId = F.P.numMethods();
  MethodBuilder B(F.P, "depth", {JType::Ref, JType::Int}, JType::Int);
  Label Base = B.newLabel();
  B.iload(B.arg(1)).ifeq(Base);
  B.aload(B.arg(0)).iload(B.arg(1)).iconst(1).isub().invoke(SelfId)
      .iconst(1).iadd().ireturn();
  B.bind(Base).iconst(0).ireturn();
  ASSERT_EQ(B.finish(), SelfId);

  MethodBuilder C(F.P, "f", {}, std::nullopt);
  Local Pv = C.newLocal(JType::Ref);
  C.newInstance(F.Pair).astore(Pv);
  C.aload(Pv).iconst(3).invoke(SelfId).pop();
  C.aload(Pv).aload(Pv).putfield(F.A);
  C.ret();
  C.finish();
  // A recursion cycle containing only reads is pure (purity only turns
  // off; a pure cycle stays pure at the fixed point).
  CompilerOptions Opts;
  Opts.Inline.InlineLimit = 0; // keep the calls out-of-line
  BarrierStats::Summary S = runChecked(F.P, F.P.findMethod("f"), {}, Opts);
  EXPECT_EQ(S.ElidedExecs, S.TotalExecs);
}

TEST(Summaries, PurityIsPerCalleeAndOrderIndependent) {
  PairFixture F;
  MethodId Leaf = addProbe(F.P, "leaf");
  // dirtyA <-> dirtyB recurse; dirtyA also calls leaf, dirtyB writes a
  // static. Both are impure; leaf, met first on the way, stays pure.
  MethodId DirtyA = F.P.numMethods();
  MethodBuilder DA(F.P, "dirtyA", {JType::Ref}, JType::Int);
  DA.aload(DA.arg(0)).invoke(Leaf).pop();
  DA.aload(DA.arg(0)).invoke(DirtyA + 1).ireturn();
  ASSERT_EQ(DA.finish(), DirtyA);
  MethodBuilder DB(F.P, "dirtyB", {JType::Ref}, JType::Int);
  DB.aload(DB.arg(0)).putstatic(F.Sink);
  DB.aload(DB.arg(0)).invoke(DirtyA).ireturn();
  ASSERT_EQ(DB.finish(), DirtyA + 1);
  // pureA <-> pureB recurse and only read: pure.
  MethodId PureA = F.P.numMethods();
  MethodBuilder PA(F.P, "pureA", {JType::Ref}, JType::Int);
  PA.aload(PA.arg(0)).invoke(PureA + 1).ireturn();
  ASSERT_EQ(PA.finish(), PureA);
  MethodBuilder PB(F.P, "pureB", {JType::Ref}, JType::Int);
  PB.aload(PB.arg(0)).invoke(Leaf).pop();
  PB.aload(PB.arg(0)).invoke(PureA).ireturn();
  ASSERT_EQ(PB.finish(), PureA + 1);

  // One analysis meets the callees in the order given; a store after
  // each call is elided exactly when the callee is pure.
  auto Elisions = [&](std::vector<MethodId> Callees, const char *Name) {
    MethodBuilder B(F.P, Name, {JType::Ref}, std::nullopt);
    for (MethodId Callee : Callees) {
      Local Pv = B.newLocal(JType::Ref);
      B.newInstance(F.Pair).astore(Pv);
      B.aload(Pv).invoke(Callee).pop();
      B.aload(Pv).aload(B.arg(0)).putfield(F.A);
    }
    B.ret();
    B.finish();
    AnalysisResult R = analyze(F.P, F.P.findMethod(Name));
    std::vector<bool> Out;
    for (unsigned I = 0; I != Callees.size(); ++I)
      Out.push_back(site(R, I).Elide);
    return Out;
  };
  const std::vector<bool> DirtyFirst = {false, false, true, true, true};
  EXPECT_EQ(Elisions({DirtyA, DirtyA + 1, Leaf, PureA, PureA + 1}, "f1"),
            DirtyFirst);
  const std::vector<bool> PureFirst = {true, true, true, false, false};
  EXPECT_EQ(Elisions({PureA + 1, PureA, Leaf, DirtyA + 1, DirtyA}, "f2"),
            PureFirst);
}

TEST(Summaries, NullOrSameTagSurvivesPureCall) {
  PairFixture F;
  MethodId Probe = addProbe(F.P, "probe");
  MethodBuilder B(F.P, "Pair.touch", F.Pair, {}, std::nullopt, false);
  Local V = B.newLocal(JType::Ref);
  B.aload(B.arg(0)).getfield(F.A).astore(V);
  B.aload(V).invoke(Probe).pop(); // pure: cannot write o.a
  B.aload(B.arg(0)).aload(V).putfield(F.A);
  B.ret();
  B.finish();
  AnalysisConfig Cfg;
  Cfg.EnableNullOrSame = true;
  Cfg.NosAssumeNoRaces = true;
  AnalysisResult R = analyze(F.P, F.P.findMethod("Pair.touch"), Cfg);
  EXPECT_TRUE(site(R, 0).Elide);
  EXPECT_EQ(site(R, 0).Reason, ElisionReason::NullOrSame);
}

TEST(Summaries, FuzzedProgramsStaySound) {
  // Random programs (whose helper is impure) must behave identically and
  // stay violation-free with summaries on and off.
  for (uint32_t Seed = 500; Seed != 512; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    for (bool Use : {true, false}) {
      CompilerOptions Opts;
      Opts.Analysis.UseCalleeSummaries = Use;
      CompiledProgram CP = compileProgram(*G.P, Opts);
      Heap H(*G.P);
      Interpreter I(*G.P, CP, H);
      ASSERT_EQ(I.run(G.Entry, {60}), RunStatus::Finished)
          << "seed " << Seed;
      EXPECT_EQ(I.stats().summarize().Violations, 0u)
          << "seed " << Seed << " summaries " << Use;
    }
  }
}
