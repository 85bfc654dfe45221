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
