//===- tests/tiered_test.cpp - Tiered execution & speculative elision -----===//
///
/// \file
/// The tiered method-version layer (DESIGN.md "Tiered execution"):
///
///   - structural: Baseline / Static / Speculative translations of one
///     method share stream shape exactly (length, operands, Site
///     numbering, displacements) — the invariant that makes deopt an
///     index-preserving IP transfer;
///   - lifecycle: a crafted method warms to Static, speculates from its
///     profile, elides barriers the static proof cannot, then a genuine
///     guard failure mid-run deopts it back to Static — with observables
///     bit-identical to a never-speculated run;
///   - randomized differential: tiered-on vs tiered-off over seeded
///     random programs, fused and unfused, whole-run and small quanta,
///     with marking live — including forced deopt storms
///     (TieredOptions::ForceDeoptEvery, the SATB_DEOPT_EVERY knob);
///   - generational: young-speculating versions retire on minor-GC
///     epochs (lazy check at the dispatch point) without disturbing
///     observables;
///   - multi-mutator: the concurrent grid runs tiered, storm included.
///
/// Tier-dependent bookkeeping (Elided, RemSetElided, YoungSeen,
/// SpecElided, Deopts, modeled BarrierCost) legitimately differs across
/// tiers; everything semantic (status, trap, result, steps, per-site
/// Execs/PreNull/Violations/RemSet{Dirtied,Violations}, heap history,
/// reachability, SATB log totals, marked-object counts) must not.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "gc/MinorGC.h"
#include "interp/FastInterp.h"
#include "interp/ThreadedCycle.h"
#include "workloads/Workload.h"

using namespace satb;
using namespace satb::testutil;

namespace {

/// Aggressive thresholds so tiny test programs reach the speculative
/// tier within a few dozen invocations.
TieredOptions aggressiveTiering() {
  TieredOptions T;
  T.Enabled = true;
  T.WarmInvocations = 2;
  T.HotInvocations = 4;
  T.MinSiteExecs = 4;
  T.ForceDeoptEvery = 0;
  return T;
}

/// Everything the tiers must agree on. Deliberately excludes BarrierCost
/// and the tier-dependent site counters (see file comment).
struct Observed {
  RunStatus Status = RunStatus::NotStarted;
  TrapKind Trap = TrapKind::None;
  int64_t ResultInt = 0;
  ObjRef ResultRef = NullRef;
  uint64_t Steps = 0;
  uint64_t Allocated = 0;
  uint64_t Live = 0;
  std::vector<bool> Reachable;
  std::vector<SiteStats> Sites;
  uint64_t Logged = 0; ///< SATB marker total after finishMarking
  uint64_t Marked = 0;
  uint64_t MinorCollections = 0;
};

void expectSemanticEqual(const Observed &A, const Observed &B,
                         const std::string &What) {
  EXPECT_EQ(A.Status, B.Status) << What;
  EXPECT_EQ(static_cast<int>(A.Trap), static_cast<int>(B.Trap)) << What;
  EXPECT_EQ(A.ResultInt, B.ResultInt) << What;
  EXPECT_EQ(A.ResultRef, B.ResultRef) << What;
  EXPECT_EQ(A.Steps, B.Steps) << What;
  EXPECT_EQ(A.Allocated, B.Allocated) << What;
  EXPECT_EQ(A.Live, B.Live) << What;
  EXPECT_EQ(A.Reachable, B.Reachable) << What;
  EXPECT_EQ(A.Logged, B.Logged) << What;
  EXPECT_EQ(A.Marked, B.Marked) << What;
  EXPECT_EQ(A.MinorCollections, B.MinorCollections) << What;
  ASSERT_EQ(A.Sites.size(), B.Sites.size()) << What;
  for (size_t I = 0; I != A.Sites.size(); ++I) {
    const SiteStats &S = A.Sites[I], &T = B.Sites[I];
    EXPECT_EQ(S.Execs, T.Execs) << What << " site " << I;
    EXPECT_EQ(S.PreNull, T.PreNull) << What << " site " << I;
    EXPECT_EQ(S.Rearranged, T.Rearranged) << What << " site " << I;
    EXPECT_EQ(S.Violations, T.Violations) << What << " site " << I;
    EXPECT_EQ(S.RemSetDirtied, T.RemSetDirtied) << What << " site " << I;
    EXPECT_EQ(S.RemSetViolations, T.RemSetViolations)
        << What << " site " << I;
  }
}

struct RunKnobs {
  bool Fuse = true;
  uint64_t Quantum = 0;     ///< 0 = one uninterrupted run
  bool Mark = true;         ///< begin a SATB cycle before stepping
  bool Nursery = false;     ///< tiny nursery + synchronous minor GCs
  uint64_t StepLimit = 20'000'000;
};

/// Runs \p Entry under one engine configuration. \p TOpts selects the
/// tiered table (the engine owns an untiered wrap table when null).
Observed runConfig(const Program &P, const CompiledProgram &CP,
                   MethodId Entry, const std::vector<int64_t> &Args,
                   const RunKnobs &K, const TieredOptions *TOpts,
                   TierCounters *OutCounters = nullptr) {
  Heap H(P);
  if (K.Nursery) {
    Heap::NurseryConfig NC;
    NC.NurseryBytes = 4096; // tiny: collections throughout the run
    NC.PretenureBytes = 512;
    H.enableNursery(NC);
  }
  TranslateOptions TO;
  TO.Fuse = K.Fuse;

  SatbMarker M(H);
  MinorGC Gen(H);
  Gen.attachMarker(&M);
  Gen.setRemSetValid(CP.Options.Barrier == BarrierMode::Generational);

  Observed O;
  auto drive = [&](FastInterp &I) {
    I.attachSatb(&M);
    if (K.Nursery) {
      I.attachGen(&Gen);
      installNurseryHook(H, Gen, I);
    }
    I.start(Entry, Args);
    if (K.Mark)
      M.beginMarking(I.collectRoots());
    uint64_t Budget = K.StepLimit;
    while (I.status() == RunStatus::Running && Budget > 0) {
      uint64_t Before = I.stepsExecuted();
      I.step(K.Quantum ? std::min(K.Quantum, Budget) : Budget);
      Budget -= std::min(I.stepsExecuted() - Before, Budget);
    }
    if (K.Mark) {
      M.finishMarking();
      O.Logged = M.stats().LoggedPreValues;
      O.Marked = M.stats().MarkedObjects;
    }
    O.Status = I.status();
    O.Trap = I.trap();
    O.ResultInt = I.result().Int;
    O.ResultRef = I.result().Ref;
    O.Steps = I.stepsExecuted();
    O.Allocated = H.numAllocated();
    O.Live = H.numLive();
    O.Reachable = computeReachable(H, I.collectRoots());
    O.Sites = I.stats().flat();
    O.MinorCollections = Gen.stats().Collections;
  };

  if (TOpts) {
    MethodVersionTable VT(P, CP, TO, *TOpts);
    FastInterp I(VT, CP, H);
    drive(I);
    if (OutCounters)
      *OutCounters = VT.counters();
  } else {
    FastProgram FP = translateProgram(P, CP, TO);
    FastInterp I(FP, CP, H);
    drive(I);
  }
  return O;
}

// --- Structural: tiers share stream shape -----------------------------------

/// Translates \p M at all three tiers (Speculative with every
/// profile-eligible site requested) and checks the deopt precondition:
/// identical length, A, B, Site everywhere; C identical except where the
/// speculative tier planted a flag word on a *_Spec op.
void expectTierShapeInvariant(const Program &P, const CompiledProgram &CP,
                              MethodId M, size_t &SpecOps) {
  const CompiledMethod &CM = CP.Methods[M];
  size_t N = CM.Analysis.Decisions.size();
  SpeculativeFacts Facts = injectSpeculativeFacts(
      CM.Analysis, std::vector<bool>(N, true), std::vector<bool>(N, true),
      CP.Options.ApplyElision);

  TranslateOptions Base, Stat, Spec;
  Base.Tier = TranslationTier::Baseline;
  Stat.Tier = TranslationTier::Static;
  Spec.Tier = TranslationTier::Speculative;
  Spec.Spec = &Facts;
  FastMethod B = translateMethod(P, CP, M, Base);
  FastMethod S = translateMethod(P, CP, M, Stat);
  FastMethod V = translateMethod(P, CP, M, Spec);

  EXPECT_EQ(B.FrameSlots, S.FrameSlots);
  EXPECT_EQ(S.FrameSlots, V.FrameSlots);
  ASSERT_EQ(B.Code.size(), S.Code.size()) << "method " << M;
  ASSERT_EQ(S.Code.size(), V.Code.size()) << "method " << M;
  for (size_t I = 0; I != S.Code.size(); ++I) {
    EXPECT_EQ(B.Code[I].A, S.Code[I].A) << "method " << M << " slot " << I;
    EXPECT_EQ(S.Code[I].A, V.Code[I].A) << "method " << M << " slot " << I;
    EXPECT_EQ(B.Code[I].B, S.Code[I].B) << "method " << M << " slot " << I;
    EXPECT_EQ(S.Code[I].B, V.Code[I].B) << "method " << M << " slot " << I;
    EXPECT_EQ(B.Code[I].Site, S.Code[I].Site)
        << "method " << M << " slot " << I;
    EXPECT_EQ(S.Code[I].Site, V.Code[I].Site)
        << "method " << M << " slot " << I;
    FastOp VOp = static_cast<FastOp>(V.Code[I].Op);
    bool IsBaseSpec = VOp == FastOp::PutFieldRef_Spec ||
                      VOp == FastOp::PutStaticRef_Spec ||
                      VOp == FastOp::AAStore_Spec;
    bool IsFusedSpec = VOp == FastOp::LoadPutFieldRef_Spec ||
                       VOp == FastOp::LoadAAStore_Spec;
    SpecOps += IsBaseSpec || IsFusedSpec;
    if (IsBaseSpec) {
      EXPECT_NE(V.Code[I].C, 0) << "spec op with empty flag word";
    } else if (IsFusedSpec) {
      // The flag word lives on the pair's verbatim second slot (a base
      // spec op the loop checks on its own); the first slot's C is the
      // load's, identical across tiers.
      EXPECT_EQ(S.Code[I].C, V.Code[I].C)
          << "method " << M << " slot " << I;
    } else {
      EXPECT_EQ(S.Code[I].C, V.Code[I].C)
          << "method " << M << " slot " << I;
      EXPECT_EQ(S.Code[I].Op, V.Code[I].Op)
          << "non-spec op rewritten, method " << M << " slot " << I;
    }
    EXPECT_EQ(B.Code[I].C, S.Code[I].C) << "method " << M << " slot " << I;
  }
}

TEST(Tiered, TiersShareStreamShape) {
  for (BarrierMode Mode : {BarrierMode::Satb, BarrierMode::Generational,
                           BarrierMode::SatbAlwaysLog}) {
    Workload W = makeJessLike();
    CompilerOptions Opts;
    Opts.Interp = InterpMode::Fast;
    Opts.Barrier = Mode;
    CompiledProgram CP = compileProgram(*W.P, Opts);
    size_t SpecOps = 0;
    for (MethodId M = 0; M != CP.Methods.size(); ++M)
      expectTierShapeInvariant(*W.P, CP, M, SpecOps);
    EXPECT_GT(SpecOps, 0u)
        << "all-eligible speculation planted no spec op, mode "
        << static_cast<int>(Mode);
  }
}

TEST(Tiered, BaselineKeepsEveryBarrier) {
  // The profiling tier must not consume the static proof: no *_Elided /
  // *_GenPreNull / *_GenYoung / *_GenElided ops anywhere in a Baseline
  // stream, while the Static stream of the same program has some.
  Workload W = makeDbLike();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  auto CountElided = [](const FastMethod &FM) {
    size_t N = 0;
    for (const FastInst &I : FM.Code) {
      switch (static_cast<FastOp>(I.Op)) {
      case FastOp::PutFieldRef_Elided:
      case FastOp::PutStaticRef_Elided:
      case FastOp::AAStore_Elided:
      case FastOp::PutFieldRef_GenPreNull:
      case FastOp::PutFieldRef_GenYoung:
      case FastOp::PutFieldRef_GenElided:
      case FastOp::AAStore_GenPreNull:
      case FastOp::AAStore_GenYoung:
      case FastOp::AAStore_GenElided:
      case FastOp::LoadPutFieldRef_Elided:
      case FastOp::LoadAAStore_Elided:
      case FastOp::LoadPutFieldRef_GenPreNull:
      case FastOp::LoadPutFieldRef_GenYoung:
      case FastOp::LoadPutFieldRef_GenElided:
      case FastOp::LoadAAStore_GenPreNull:
      case FastOp::LoadAAStore_GenYoung:
      case FastOp::LoadAAStore_GenElided:
        ++N;
        break;
      default:
        break;
      }
    }
    return N;
  };
  TranslateOptions Base, Stat;
  Base.Tier = TranslationTier::Baseline;
  Stat.Tier = TranslationTier::Static;
  size_t BaseElided = 0, StatElided = 0;
  for (MethodId M = 0; M != CP.Methods.size(); ++M) {
    BaseElided += CountElided(translateMethod(*W.P, CP, M, Base));
    StatElided += CountElided(translateMethod(*W.P, CP, M, Stat));
  }
  EXPECT_EQ(BaseElided, 0u);
  EXPECT_GT(StatElided, 0u);
}

// --- Lifecycle: promote, speculate, deopt -----------------------------------

/// setf(o, v) { o.f = v; } — the receiver is an argument, so the static
/// analysis cannot prove the field pre-null; only the profile can.
struct SpecCandidateProgram {
  Program P;
  ClassId A;
  FieldId F;
  MethodId Setf;
  MethodId Entry;
  uint32_t StorePC = 0; ///< putfield index inside setf

  SpecCandidateProgram() {
    A = P.addClass("A");
    F = P.addField(A, "f", JType::Ref);
    {
      MethodBuilder B(P, "setf", {JType::Ref, JType::Ref}, std::nullopt);
      B.aload(B.arg(0)).aload(B.arg(1));
      StorePC = B.nextIndex();
      B.putfield(F);
      B.ret();
      Setf = B.finish();
    }
    // main(n): x = new A; o = x;
    //          loop n times { o = new A; setf(o, x); }
    //          setf(o, x);   // pre-value now x: the guard genuinely fails
    //          return 0
    MethodBuilder B(P, "main", {JType::Int}, JType::Int);
    Local N = B.arg(0);
    Local X = B.newLocal(JType::Ref), O = B.newLocal(JType::Ref);
    Local I = B.newLocal(JType::Int);
    Label Head = B.newLabel(), Done = B.newLabel();
    B.newInstance(A).astore(X);
    B.aload(X).astore(O);
    B.iconst(0).istore(I);
    B.bind(Head).iload(I).iload(N).ifICmpGe(Done);
    B.newInstance(A).astore(O);
    B.aload(O).aload(X).invoke(Setf);
    B.iinc(I, 1).jump(Head);
    B.bind(Done).aload(O).aload(X).invoke(Setf);
    B.iconst(0).ireturn();
    Entry = B.finish();
  }

  CompiledProgram compile(BarrierMode Mode = BarrierMode::Satb) const {
    CompilerOptions Opts;
    Opts.Interp = InterpMode::Fast;
    Opts.Barrier = Mode;
    Opts.Inline.InlineLimit = 0; // keep the invoke (promotion needs it)
    return compileProgram(P, Opts);
  }
};

TEST(Tiered, PromotesSpeculatesAndDeoptsOnGuardFailure) {
  SpecCandidateProgram G;
  CompiledProgram CP = G.compile();
  TieredOptions T = aggressiveTiering();
  for (bool Fuse : {true, false}) {
    RunKnobs K;
    K.Fuse = Fuse;
    TierCounters TC;
    Observed Tier =
        runConfig(G.P, CP, G.Entry, {12}, K, &T, &TC);
    Observed Flat = runConfig(G.P, CP, G.Entry, {12}, K, nullptr);
    const std::string Tag = Fuse ? "fused" : "unfused";
    expectSemanticEqual(Flat, Tier, Tag);
    EXPECT_EQ(Tier.Status, RunStatus::Finished) << Tag;

    // The lifecycle ran start to finish: Baseline -> Static ->
    // Speculative -> (guard failure) -> Static.
    EXPECT_GE(TC.StaticPromotions, 1u) << Tag;
    EXPECT_EQ(TC.SpecPromotions, 1u) << Tag;
    EXPECT_EQ(TC.Deopts, 1u) << Tag;
    EXPECT_EQ(TC.ForcedDeopts, 0u) << Tag;
    EXPECT_EQ(TC.EpochInvalidations, 0u) << Tag;

    // The speculative tier elided executions the static proof could not
    // (the site's static decision keeps the barrier), and the one
    // non-null pre-value deopted exactly once, at this site.
    uint32_t Flat0 = 0;
    {
      BarrierStats Tmp;
      Tmp.init(CP);
      Flat0 = Tmp.flatIndex(G.Setf, G.StorePC);
    }
    const SiteStats &SS = Tier.Sites[Flat0];
    EXPECT_FALSE(SS.ElideDecision);
    EXPECT_GT(SS.SpecElided, 0u) << Tag;
    EXPECT_EQ(SS.Deopts, 1u) << Tag;
    EXPECT_EQ(SS.Violations, 0u) << Tag;
    // The failing execution logged its pre-value exactly like the
    // conservative barrier (already covered by expectSemanticEqual's
    // Logged comparison; restated here as the point of the test).
    EXPECT_EQ(Tier.Logged, Flat.Logged) << Tag;
  }
}

TEST(Tiered, DeoptTransfersMidRunAtTheFailingSite) {
  // Same program, observed through the table: after the run the method
  // must be pinned back on Static with one recorded deopt.
  SpecCandidateProgram G;
  CompiledProgram CP = G.compile();
  Heap H(G.P);
  TranslateOptions TO;
  MethodVersionTable VT(G.P, CP, TO, aggressiveTiering());
  FastInterp I(VT, CP, H);
  EXPECT_EQ(I.run(G.Entry, {12}), RunStatus::Finished);
  EXPECT_EQ(VT.activeTier(G.Setf), TranslationTier::Static);
  EXPECT_EQ(VT.deoptCount(G.Setf), 1u);
  EXPECT_EQ(VT.counters().Deopts, 1u);
  // Invocation counting kept running through all three versions.
  EXPECT_EQ(VT.invocations(G.Setf), 13u);
}

TEST(Tiered, MaxDeoptsPinsToStatic) {
  // Alternating pre-null / non-null pre-values re-speculate and re-fail
  // until the deopt budget pins the method to Static for good.
  SpecCandidateProgram G;
  CompiledProgram CP = G.compile();
  TieredOptions T = aggressiveTiering();
  T.MaxDeopts = 1;
  Heap H(G.P);
  TranslateOptions TO;
  MethodVersionTable VT(G.P, CP, TO, T);
  FastInterp I(VT, CP, H);
  EXPECT_EQ(I.run(G.Entry, {64}), RunStatus::Finished);
  EXPECT_EQ(VT.activeTier(G.Setf), TranslationTier::Static);
  EXPECT_LE(VT.counters().Deopts, T.MaxDeopts);
}

// --- Randomized differential: tiered vs untiered ----------------------------

void runSeedDifferential(BarrierMode Mode, bool ApplyElision,
                         uint32_t SeedBase, uint32_t NumSeeds,
                         uint32_t ForceDeoptEvery,
                         bool RequireSpeculation) {
  uint64_t TotalSpecPromotions = 0, TotalForced = 0;
  for (uint32_t Seed = SeedBase; Seed != SeedBase + NumSeeds; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    CompilerOptions Opts;
    Opts.Interp = InterpMode::Fast;
    Opts.Barrier = Mode;
    Opts.ApplyElision = ApplyElision;
    // Keep the generator's ctor/helper calls as real Invoke sites: the
    // entry method never promotes, so a fully inlined program would
    // leave the promotion policy nothing to do.
    Opts.Inline.InlineLimit = 0;
    CompiledProgram CP = compileProgram(*G.P, Opts);
    TieredOptions T = aggressiveTiering();
    T.ForceDeoptEvery = ForceDeoptEvery;
    for (bool Fuse : {true, false}) {
      RunKnobs K;
      K.Fuse = Fuse;
      std::string What = "seed " + std::to_string(Seed) +
                         (Fuse ? " fused" : " unfused") + " storm=" +
                         std::to_string(ForceDeoptEvery);
      Observed Flat = runConfig(*G.P, CP, G.Entry, {200}, K, nullptr);
      TierCounters TC;
      Observed Tier = runConfig(*G.P, CP, G.Entry, {200}, K, &T, &TC);
      expectSemanticEqual(Flat, Tier, What + " whole-run");
      TotalSpecPromotions += TC.SpecPromotions;
      TotalForced += TC.ForcedDeopts;
      for (uint64_t Quantum : {1, 3}) {
        RunKnobs KQ = K;
        KQ.Quantum = Quantum;
        Observed TierQ = runConfig(*G.P, CP, G.Entry, {200}, KQ, &T);
        expectSemanticEqual(Flat, TierQ,
                            What + " " + std::to_string(Quantum) +
                                "-step quanta");
      }
    }
  }
  // The machinery actually fired across the seed set — otherwise the
  // differential proves nothing about the speculative tier.
  if (RequireSpeculation) {
    EXPECT_GT(TotalSpecPromotions, 0u)
        << "no seed ever reached the speculative tier";
    if (ForceDeoptEvery != 0) {
      EXPECT_GT(TotalForced, 0u) << "storm configured but never fired";
    }
  }
}

TEST(Tiered, RandomProgramsTieredMatchesUntiered) {
  // With the static proof applied, the generator's always-null sites are
  // largely the provable ones, which injectSpeculativeFacts correctly
  // refuses to re-guard — so speculation firing is not guaranteed here
  // (the crafted lifecycle test pins the beyond-the-proof case).
  runSeedDifferential(BarrierMode::Satb, /*ApplyElision=*/true,
                      /*SeedBase=*/700, /*NumSeeds=*/16,
                      /*ForceDeoptEvery=*/0, /*RequireSpeculation=*/false);
}

TEST(Tiered, RandomProgramsSurviveForcedDeoptStorms) {
  // Elision off so every seed has guards for the storm to trip.
  runSeedDifferential(BarrierMode::Satb, /*ApplyElision=*/false,
                      /*SeedBase=*/700, /*NumSeeds=*/8,
                      /*ForceDeoptEvery=*/3, /*RequireSpeculation=*/true);
  runSeedDifferential(BarrierMode::Satb, /*ApplyElision=*/false,
                      /*SeedBase=*/708, /*NumSeeds=*/8,
                      /*ForceDeoptEvery=*/7, /*RequireSpeculation=*/true);
}

TEST(Tiered, RandomProgramsTieredMatchesUntieredNoStaticElision) {
  // ApplyElision off: every speculative elision is beyond the static
  // proof by construction (baseline and static tiers are barrier-
  // identical; only the profile removes anything).
  runSeedDifferential(BarrierMode::Satb, /*ApplyElision=*/false,
                      /*SeedBase=*/700, /*NumSeeds=*/8,
                      /*ForceDeoptEvery=*/0, /*RequireSpeculation=*/true);
}

// --- Generational: young speculation & epoch invalidation -------------------

TEST(Tiered, YoungSpeculationRetiresOnMinorGCEpoch) {
  SpecCandidateProgram G;
  CompiledProgram CP = G.compile(BarrierMode::Generational);
  TieredOptions T = aggressiveTiering();
  RunKnobs K;
  K.Nursery = true;
  for (bool Fuse : {true, false}) {
    K.Fuse = Fuse;
    const std::string Tag = Fuse ? "gen fused" : "gen unfused";
    TierCounters TC;
    Observed Tier = runConfig(G.P, CP, G.Entry, {600}, K, &T, &TC);
    Observed Flat = runConfig(G.P, CP, G.Entry, {600}, K, nullptr);
    expectSemanticEqual(Flat, Tier, Tag);
    EXPECT_EQ(Tier.Status, RunStatus::Finished) << Tag;
    EXPECT_GT(Tier.MinorCollections, 0u) << Tag;
    // The fresh-receiver store speculated on its always-young profile,
    // and at least one minor collection caught a live young-speculating
    // version at the next dispatch (the lazy epoch check).
    EXPECT_GE(TC.SpecPromotions, 1u) << Tag;
    EXPECT_GE(TC.EpochInvalidations, 1u) << Tag;
  }
}

TEST(Tiered, RandomProgramsTieredMatchesUntieredGenerational) {
  for (uint32_t Seed = 720; Seed != 728; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    CompilerOptions Opts;
    Opts.Interp = InterpMode::Fast;
    Opts.Barrier = BarrierMode::Generational;
    CompiledProgram CP = compileProgram(*G.P, Opts);
    TieredOptions T = aggressiveTiering();
    RunKnobs K;
    K.Nursery = true;
    for (bool Fuse : {true, false}) {
      K.Fuse = Fuse;
      std::string What = "gen seed " + std::to_string(Seed) +
                         (Fuse ? " fused" : " unfused");
      Observed Flat = runConfig(*G.P, CP, G.Entry, {200}, K, nullptr);
      Observed Tier = runConfig(*G.P, CP, G.Entry, {200}, K, &T);
      expectSemanticEqual(Flat, Tier, What);
    }
  }
}

// --- Multi-mutator: the concurrent grid runs tiered -------------------------

void expectTieredMultiMutatorRun(MultiMarkerKind Marker, BarrierMode Mode,
                                 uint32_t ForceDeoptEvery,
                                 bool Nursery) {
  GeneratedProgram G = RandomProgramGenerator(41).generate();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  Opts.Barrier = Mode;
  CompiledProgram CP = compileProgram(*G.P, Opts);
  MultiMutatorConfig Cfg;
  Cfg.Marker = Marker;
  Cfg.WarmupAllocs = 200;
  Cfg.StepLimit = 2'000'000;
  Cfg.EnableNursery = Nursery;
  Cfg.NurseryBytes = 8192;
  Cfg.Tiered = aggressiveTiering();
  Cfg.Tiered.ForceDeoptEvery = ForceDeoptEvery;
  MultiMutatorResult R =
      runWithConcurrentMutators(2, *G.P, CP, G.Entry, {400}, Cfg);
  EXPECT_TRUE(R.OracleHolds);
  EXPECT_EQ(R.Violations, 0u);
  for (unsigned T = 0; T != R.Statuses.size(); ++T)
    EXPECT_NE(R.Statuses[T], RunStatus::Trapped)
        << "mutator " << T << ": " << trapName(R.Traps[T]);
}

TEST(Tiered, MultiMutatorOracleHoldsTiered) {
  expectTieredMultiMutatorRun(MultiMarkerKind::Satb, BarrierMode::Satb,
                              /*ForceDeoptEvery=*/0, /*Nursery=*/false);
  expectTieredMultiMutatorRun(MultiMarkerKind::IncrementalUpdate,
                              BarrierMode::CardMarking,
                              /*ForceDeoptEvery=*/0, /*Nursery=*/false);
}

TEST(Tiered, MultiMutatorOracleHoldsUnderDeoptStorm) {
  expectTieredMultiMutatorRun(MultiMarkerKind::Satb, BarrierMode::Satb,
                              /*ForceDeoptEvery=*/5, /*Nursery=*/false);
}

TEST(Tiered, MultiMutatorGenerationalNurseryInvalidation) {
  // Minor collections served under stop-the-world must retire
  // young-speculating versions via the coordinator's invalidation hook
  // without breaking the snapshot oracle.
  expectTieredMultiMutatorRun(MultiMarkerKind::Satb,
                              BarrierMode::Generational,
                              /*ForceDeoptEvery=*/0, /*Nursery=*/true);
}

} // namespace
