//===- tests/determinism_test.cpp - Analysis and pipeline determinism -----===//
///
/// \file
/// The analysis must be a pure function of (program, method, config):
/// repeated runs produce identical decisions, identical static counts, and
/// identical compiled artifacts. Nondeterminism here (e.g. iteration over
/// pointer-keyed containers) would make the reproduction unfalsifiable.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "jit/Compiler.h"
#include "workloads/Workload.h"

using namespace satb;
using namespace satb::testutil;

namespace {

bool sameDecisions(const AnalysisResult &A, const AnalysisResult &B) {
  if (A.Decisions.size() != B.Decisions.size())
    return false;
  for (size_t I = 0; I != A.Decisions.size(); ++I) {
    const BarrierDecision &X = A.Decisions[I], &Y = B.Decisions[I];
    if (X.IsBarrierSite != Y.IsBarrierSite || X.Elide != Y.Elide ||
        X.Reason != Y.Reason || X.IsArraySite != Y.IsArraySite)
      return false;
  }
  return true;
}

/// FNV-1a over a stream of integers: a compact fingerprint of a corpus's
/// barrier decisions, so a golden value pins every site of hundreds of
/// methods at once.
struct Fingerprint {
  uint64_t H = 0xcbf29ce484222325ull;
  void add(uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  void add(const CompiledProgram &CP) {
    for (const CompiledMethod &M : CP.Methods) {
      add(M.Analysis.Decisions.size());
      for (const BarrierDecision &D : M.Analysis.Decisions) {
        add(D.IsBarrierSite);
        add(D.IsArraySite);
        add(D.Elide);
        add(static_cast<uint64_t>(D.Reason));
        add(D.TargetYoung);
      }
      add(M.CodeSize);
      add(M.CodeSizeNoElision);
    }
  }
};

/// bench/analysis_scaling's method shape: \p Blocks copies of "allocate a
/// Pair, initialize both fields, fill two slots of a fresh array" in one
/// loop. Each block adds two allocation sites (four abstract references),
/// so 8 blocks stay within one 64-bit word of references and 16 or more
/// do not.
std::shared_ptr<Program> straightLine(unsigned Blocks) {
  auto P = std::make_shared<Program>();
  ClassId Pair = P->addClass("Pair");
  FieldId A = P->addField(Pair, "a", JType::Ref);
  FieldId Bf = P->addField(Pair, "b", JType::Ref);
  MethodBuilder B(*P, "straight", {JType::Int}, std::nullopt);
  Local T = B.newLocal(JType::Int), X = B.newLocal(JType::Ref);
  Local Arr = B.newLocal(JType::Ref);
  Label Head = B.newLabel(), Done = B.newLabel();
  B.iconst(0).istore(T);
  B.bind(Head).iload(T).iload(B.arg(0)).ifICmpGe(Done);
  for (unsigned I = 0; I != Blocks; ++I) {
    B.newInstance(Pair).astore(X);
    B.aload(X).aload(X).putfield(A);
    B.aload(X).aconstNull().putfield(Bf);
    B.iconst(4).newRefArray().astore(Arr);
    B.aload(Arr).iconst(0).aload(X).aastore();
    B.aload(Arr).iconst(1).aload(X).aastore();
  }
  B.iinc(T, 1).jump(Head);
  B.bind(Done).ret();
  B.finish();
  return P;
}

CompilerOptions serialOpts(BarrierMode Mode) {
  CompilerOptions Opts;
  Opts.Barrier = Mode;
  Opts.CompileThreads = 1;
  return Opts;
}

uint64_t table1Fingerprint(BarrierMode Mode) {
  Fingerprint F;
  for (const Workload &W : allWorkloads())
    for (uint32_t Limit : {0u, 25u, 50u, 100u, 200u}) {
      CompilerOptions Opts = serialOpts(Mode);
      Opts.Inline.InlineLimit = Limit;
      F.add(compileProgram(*W.P, Opts));
    }
  return F.H;
}

uint64_t straightLineFingerprint(BarrierMode Mode) {
  Fingerprint F;
  for (unsigned Blocks : {8u, 16u, 32u, 64u})
    F.add(compileProgram(*straightLine(Blocks), serialOpts(Mode)));
  return F.H;
}

uint64_t randomFingerprint(BarrierMode Mode) {
  Fingerprint F;
  for (uint32_t Seed = 1; Seed <= 200; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    F.add(compileProgram(*G.P, serialOpts(Mode)));
  }
  return F.H;
}

} // namespace

// Golden fingerprints of every barrier decision and code size over a fixed
// corpus. Elision decisions are a pure function of (program, method,
// config); a change to the analysis's data structures or iteration must
// leave these values unchanged. Update them only with a change that means
// to move decisions, and say why.
TEST(Determinism, DecisionFingerprintTable1) {
  EXPECT_EQ(table1Fingerprint(BarrierMode::Satb), 0x7b19ea1590f98fc9ull);
  EXPECT_EQ(table1Fingerprint(BarrierMode::Generational),
            0xadca307bb732c95aull);
}

TEST(Determinism, DecisionFingerprintStraightLine) {
  EXPECT_EQ(straightLineFingerprint(BarrierMode::Satb), 0x6a51be1c49afa2b1ull);
  EXPECT_EQ(straightLineFingerprint(BarrierMode::Generational),
            0xd81485c3f91e96c5ull);
}

TEST(Determinism, DecisionFingerprintRandomPrograms) {
  EXPECT_EQ(randomFingerprint(BarrierMode::Satb), 0x50735ce3fa4d0b14ull);
  EXPECT_EQ(randomFingerprint(BarrierMode::Generational),
            0x4fcc5545c8ac3801ull);
}

TEST(Determinism, RepeatedAnalysisIdentical) {
  for (uint32_t Seed = 700; Seed != 715; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    const Method &M = G.P->method(G.Entry);
    AnalysisConfig Cfg;
    AnalysisResult A = analyzeBarriers(*G.P, M, Cfg);
    AnalysisResult B = analyzeBarriers(*G.P, M, Cfg);
    EXPECT_TRUE(sameDecisions(A, B)) << "seed " << Seed;
    EXPECT_EQ(A.NumElided, B.NumElided);
    EXPECT_EQ(A.BlockVisits, B.BlockVisits) << "seed " << Seed;
  }
}

TEST(Determinism, CompiledProgramsIdentical) {
  for (const Workload &W : allWorkloads()) {
    CompiledProgram A = compileProgram(*W.P, CompilerOptions{});
    CompiledProgram B = compileProgram(*W.P, CompilerOptions{});
    ASSERT_EQ(A.Methods.size(), B.Methods.size());
    for (size_t M = 0; M != A.Methods.size(); ++M) {
      EXPECT_EQ(A.Methods[M].Body.Instructions.size(),
                B.Methods[M].Body.Instructions.size());
      EXPECT_EQ(A.Methods[M].BarrierKept, B.Methods[M].BarrierKept)
          << W.Name;
      EXPECT_EQ(A.Methods[M].CodeSize, B.Methods[M].CodeSize);
    }
    EXPECT_EQ(A.totalElidedSites(), B.totalElidedSites()) << W.Name;
  }
}

TEST(Determinism, ExecutionBitIdentical) {
  // Same compiled program, fresh heaps: identical step counts, barrier
  // stats, and results.
  Workload W = makeJavacLike();
  CompiledProgram CP = compileProgram(*W.P, CompilerOptions{});
  uint64_t Steps[2], Execs[2];
  int64_t Result[2];
  for (int I = 0; I != 2; ++I) {
    Heap H(*W.P);
    Interpreter Interp(*W.P, CP, H);
    ASSERT_EQ(Interp.run(W.Entry, {777}), RunStatus::Finished);
    Steps[I] = Interp.stepsExecuted();
    Execs[I] = Interp.stats().summarize().TotalExecs;
    Result[I] = Interp.result().Int;
  }
  EXPECT_EQ(Steps[0], Steps[1]);
  EXPECT_EQ(Execs[0], Execs[1]);
  EXPECT_EQ(Result[0], Result[1]);
}

TEST(Determinism, DeterministicConcurrentCycles) {
  // The interleaved (non-threaded) driver is fully deterministic: same
  // quanta, same pause work, same marked count.
  Workload W = makeJessLike();
  ConcurrentRunResult R[2];
  for (int I = 0; I != 2; ++I) {
    CompiledProgram CP = compileProgram(*W.P, CompilerOptions{});
    Heap H(*W.P);
    SatbMarker M(H);
    Interpreter Interp(*W.P, CP, H);
    Interp.attachSatb(&M);
    ConcurrentRunConfig RC;
    RC.WarmupSteps = 2500;
    RC.MutatorQuantum = 33;
    RC.MarkerQuantum = 7;
    R[I] = runWithConcurrentSatb(Interp, M, H, W.Entry, {400}, RC);
    ASSERT_TRUE(R[I].OracleHolds);
  }
  EXPECT_EQ(R[0].Marked, R[1].Marked);
  EXPECT_EQ(R[0].FinalPauseWork, R[1].FinalPauseWork);
  EXPECT_EQ(R[0].Swept, R[1].Swept);
}

// --- Golden cycle fingerprints ----------------------------------------------

namespace {

enum class CycleKind { Satb, SatbRearrange, IncUpdate };

/// One deterministic concurrent cycle of \p W under \p K, reduced to the
/// driver's result (Marked, Swept, FinalPauseWork, OracleLive) followed by
/// the marker's own counters: SATB's LoggedPreValues, ConcurrentWork,
/// RearrangesEntered, RearrangesClean and RearrangeRetraces, or
/// incremental update's CardsDirtied, ConcurrentWork and FinalPausePasses.
std::vector<uint64_t> cycleFingerprint(const Workload &W, CycleKind K) {
  CompilerOptions Opts;
  Opts.EnableArrayRearrange = K == CycleKind::SatbRearrange;
  if (K == CycleKind::IncUpdate) {
    // bench/satb_vs_incupdate_pause's incremental-update configuration.
    Opts.Barrier = BarrierMode::CardMarking;
    Opts.ApplyElision = false;
  }
  CompiledProgram CP = compileProgram(*W.P, Opts);
  Heap H(*W.P);
  Interpreter I(*W.P, CP, H);
  ConcurrentRunConfig RC;
  RC.WarmupSteps = 50000;
  RC.MutatorQuantum = 256;
  RC.MarkerQuantum = 4;
  const std::vector<int64_t> Args = {3000};
  auto Common = [&](const ConcurrentRunResult &R) {
    EXPECT_TRUE(R.OracleHolds) << W.Name;
    EXPECT_EQ(R.Status, RunStatus::Finished) << W.Name;
    return std::vector<uint64_t>{R.Marked, R.Swept, R.FinalPauseWork,
                                 R.OracleLive};
  };
  if (K == CycleKind::IncUpdate) {
    IncrementalUpdateMarker M(H);
    I.attachIncUpdate(&M);
    std::vector<uint64_t> F = Common(
        runWithConcurrentCycle(I, M, H, W.Entry, Args, RC));
    const IncUpdateStats &S = M.stats();
    F.insert(F.end(), {S.CardsDirtied, S.ConcurrentWork, S.FinalPausePasses});
    return F;
  }
  SatbMarker M(H);
  I.attachSatb(&M);
  std::vector<uint64_t> F =
      Common(runWithConcurrentSatb(I, M, H, W.Entry, Args, RC));
  const SatbStats &S = M.stats();
  F.insert(F.end(), {S.LoggedPreValues, S.ConcurrentWork, S.RearrangesEntered,
                     S.RearrangesClean, S.RearrangeRetraces});
  return F;
}

} // namespace

// Golden fingerprints of one deterministic concurrent cycle per Table 1
// workload and collector, in cycleFingerprint's order. The interleaved
// driver is a pure function of (program, config), so a change to the
// marking code or the cycle drivers that means to keep behaviour must
// leave every value unchanged.
TEST(Determinism, CycleFingerprintsTable1) {
  struct Golden {
    const char *Name;
    std::vector<uint64_t> Satb, SatbRearrange, IncUpdate;
  };
  const Golden Table[] = {
      {"jess",
       {599, 110, 1, 599, 1013, 1192, 0, 0, 0},
       {599, 110, 1, 599, 1013, 1192, 0, 0, 0},
       {15053, 2948, 23642, 15007, 118167, 24833, 3}},
      {"db",
       {259, 226, 1, 259, 588, 512, 0, 0, 0},
       {259, 222, 2, 259, 310, 511, 274, 273, 1},
       {282, 436, 26, 142, 2205, 12129, 2}},
      {"javac",
       {201, 337, 1, 201, 969, 398, 0, 0, 0},
       {201, 337, 1, 201, 969, 398, 0, 0, 0},
       {9246, 506, 9793, 240, 90698, 100486, 3}},
      {"mtrt",
       {852, 404, 1, 852, 534, 1696, 0, 0, 0},
       {852, 404, 1, 852, 534, 1696, 0, 0, 0},
       {15324, 8677, 35545, 15065, 105203, 18451, 3}},
      {"jack",
       {215, 923, 1, 215, 1381, 431, 0, 0, 0},
       {215, 923, 1, 215, 1381, 431, 0, 0, 0},
       {4868, 1133, 11491, 228, 26751, 3346, 2}},
      {"jbb",
       {500, 0, 1, 500, 3786, 1008, 0, 0, 0},
       {498, 0, 2, 498, 3155, 1002, 106, 105, 1},
       {3004, 0, 4791, 3004, 25455, 3959, 3}},
  };
  std::vector<Workload> All = allWorkloads();
  ASSERT_EQ(All.size(), std::size(Table));
  for (size_t I = 0; I != All.size(); ++I) {
    const Workload &W = All[I];
    ASSERT_EQ(W.Name, Table[I].Name);
    EXPECT_EQ(cycleFingerprint(W, CycleKind::Satb), Table[I].Satb) << W.Name;
    EXPECT_EQ(cycleFingerprint(W, CycleKind::SatbRearrange),
              Table[I].SatbRearrange)
        << W.Name;
    EXPECT_EQ(cycleFingerprint(W, CycleKind::IncUpdate), Table[I].IncUpdate)
        << W.Name;
  }
}
