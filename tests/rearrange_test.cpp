//===- tests/rearrange_test.cpp - Section 4.3 array rearrangement ---------===//
///
/// \file
/// Tests the move-down-loop recognizer, the enter/exit transformation, and
/// the runtime protocol: snapshot preservation under adversarial
/// mutator/marker interleavings, the mid-loop-marking fallback, and the
/// retrace path.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/Rearrange.h"
#include "workloads/Workload.h"

using namespace satb;
using namespace satb::testutil;

namespace {

/// Builds the canonical move-down delete loop:
///   deleteFirst(arr) { for (j=0; j < arr.length-1; j++) arr[j]=arr[j+1];
///                      return; }
MethodId buildDeleteFirst(Program &P, const char *Name) {
  MethodBuilder B(P, Name, {JType::Ref}, std::nullopt);
  Local Arr = B.arg(0);
  Local J = B.newLocal(JType::Int);
  Label Head = B.newLabel(), Exit = B.newLabel();
  B.iconst(0).istore(J);
  B.bind(Head);
  B.iload(J).aload(Arr).arraylength().iconst(1).isub().ifICmpGe(Exit);
  B.aload(Arr).iload(J);
  B.aload(Arr).iload(J).iconst(1).iadd().aaload();
  B.aastore();
  B.iinc(J, 1).jump(Head);
  B.bind(Exit).ret();
  return B.finish();
}

/// A workload that repeatedly fills a shared array and deletes element 0
/// through the move-down idiom — maximal pressure on the protocol.
struct MoveDownWorkload {
  Program P;
  ClassId Node;
  StaticFieldId ArrSt;
  MethodId Delete, Main;

  MoveDownWorkload() {
    Node = P.addClass("Node");
    P.addField(Node, "x", JType::Ref);
    ArrSt = P.addStaticField("arr", JType::Ref);
    Delete = buildDeleteFirst(P, "deleteFirst");

    MethodBuilder B(P, "main", {JType::Int}, std::nullopt);
    Local N = B.arg(0), T = B.newLocal(JType::Int);
    Local Arr = B.newLocal(JType::Ref), K = B.newLocal(JType::Int);
    Label Loop = B.newLabel(), Done = B.newLabel();
    Label Fill = B.newLabel(), FillDone = B.newLabel();
    B.iconst(12).newRefArray().astore(Arr);
    B.aload(Arr).putstatic(ArrSt); // escaped: barriers would be kept
    B.iconst(0).istore(T);
    B.bind(Loop).iload(T).iload(N).ifICmpGe(Done);
    // Refill any holes with fresh nodes.
    B.iconst(0).istore(K);
    B.bind(Fill).iload(K).iconst(12).ifICmpGe(FillDone);
    B.aload(Arr).iload(K).newInstance(Node).aastore();
    B.iinc(K, 2).jump(Fill);
    B.bind(FillDone);
    // Delete element 0 twice per transaction.
    B.aload(Arr).invoke(Delete);
    B.aload(Arr).invoke(Delete);
    B.iinc(T, 1).jump(Loop);
    B.bind(Done).ret();
    Main = B.finish();
  }
};

CompilerOptions rearrangeOpts() {
  CompilerOptions Opts;
  Opts.EnableArrayRearrange = true;
  return Opts;
}

} // namespace

TEST(Rearrange, RecognizesCanonicalLoop) {
  Program P;
  MethodId Id = buildDeleteFirst(P, "del");
  RearrangeResult R = recognizeMoveDownLoops(P.method(Id));
  EXPECT_EQ(R.LoopsTransformed, 1u);
  // Enter precedes the induction setup; Exit sits at the branch target.
  const auto &Code = R.Transformed.Instructions;
  EXPECT_EQ(Code[0].Op, Opcode::RearrangeEnter);
  EXPECT_EQ(Code[0].B, 0); // dropped index
  unsigned Exits = 0, Enters = 0, Protocol = 0;
  for (size_t I = 0; I != Code.size(); ++I) {
    Exits += Code[I].Op == Opcode::RearrangeExit;
    Enters += Code[I].Op == Opcode::RearrangeEnter;
    Protocol += I < R.ProtocolStores.size() && R.ProtocolStores[I];
    if (R.ProtocolStores[I]) {
      EXPECT_EQ(Code[I].Op, Opcode::AAStore);
    }
  }
  EXPECT_EQ(Enters, 1u);
  EXPECT_EQ(Exits, 1u);
  EXPECT_EQ(Protocol, 1u);
  // The transformed body still verifies and the branch targets line up.
  VerifyResult V = verifyMethod(P, R.Transformed);
  EXPECT_TRUE(V.Ok) << V.Error;
}

TEST(Rearrange, NonMatchingLoopsUntouched) {
  Program P;
  // A forward fill is not a rearrangement.
  MethodBuilder B(P, "fill", {JType::Ref}, std::nullopt);
  Local Arr = B.arg(0), J = B.newLocal(JType::Int);
  Label Head = B.newLabel(), Exit = B.newLabel();
  B.iconst(0).istore(J);
  B.bind(Head).iload(J).aload(Arr).arraylength().ifICmpGe(Exit);
  B.aload(Arr).iload(J).aconstNull().aastore();
  B.iinc(J, 1).jump(Head);
  B.bind(Exit).ret();
  MethodId Id = B.finish();
  RearrangeResult R = recognizeMoveDownLoops(P.method(Id));
  EXPECT_EQ(R.LoopsTransformed, 0u);
  EXPECT_EQ(R.Transformed.Instructions.size(),
            P.method(Id).Instructions.size());
}

TEST(Rearrange, UpShiftLoopNotMatched) {
  Program P;
  // arr[j+1] = arr[j] (move-up / insert) has a different overwrite
  // pattern; the strict matcher must reject it.
  MethodBuilder B(P, "up", {JType::Ref}, std::nullopt);
  Local Arr = B.arg(0), J = B.newLocal(JType::Int);
  Label Head = B.newLabel(), Exit = B.newLabel();
  B.iconst(0).istore(J);
  B.bind(Head).iload(J).aload(Arr).arraylength().iconst(1).isub()
      .ifICmpGe(Exit);
  B.aload(Arr).iload(J).iconst(1).iadd();
  B.aload(Arr).iload(J).aaload();
  B.aastore();
  B.iinc(J, 1).jump(Head);
  B.bind(Exit).ret();
  MethodId Id = B.finish();
  EXPECT_EQ(recognizeMoveDownLoops(P.method(Id)).LoopsTransformed, 0u);
}

TEST(Rearrange, SemanticsUnchanged) {
  // The transformation must not change what the program computes.
  MoveDownWorkload W;
  for (bool Enable : {false, true}) {
    CompilerOptions Opts;
    Opts.EnableArrayRearrange = Enable;
    CompiledProgram CP = compileProgram(W.P, Opts);
    if (Enable) {
      EXPECT_GT(CP.method(W.Delete).RearrangeLoops +
                    CP.method(W.Main).RearrangeLoops,
                0u);
    }
    Heap H(W.P);
    Interpreter I(W.P, CP, H);
    ASSERT_EQ(I.run(W.Main, {50}), RunStatus::Finished)
        << trapName(I.trap());
    EXPECT_EQ(I.stats().summarize().Violations, 0u);
  }
}

TEST(Rearrange, ProtocolSkipsLogsDuringMarking) {
  MoveDownWorkload W;
  auto LoggedWith = [&](bool Enable) {
    CompilerOptions Opts;
    Opts.EnableArrayRearrange = Enable;
    CompiledProgram CP = compileProgram(W.P, Opts);
    Heap H(W.P);
    SatbMarker M(H);
    Interpreter I(W.P, CP, H);
    I.attachSatb(&M);
    ConcurrentRunConfig RC;
    RC.WarmupSteps = 500;
    ConcurrentRunResult R =
        runWithConcurrentSatb(I, M, H, W.Main, {120}, RC);
    EXPECT_TRUE(R.OracleHolds);
    return M.stats().LoggedPreValues;
  };
  uint64_t Without = LoggedWith(false);
  uint64_t With = LoggedWith(true);
  EXPECT_LT(With, Without)
      << "the protocol should log far fewer pre-values";
}

class RearrangeOracle
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(RearrangeOracle, SnapshotPreservedUnderInterleavings) {
  // The decisive test: SATB's snapshot guarantee must survive the
  // protocol under adversarial interleavings, including marker quanta so
  // small that marking regularly begins and ends mid-loop (exercising the
  // fallback and the finish-time retrace of still-active rearrangements).
  auto [MutQ, MarkQ] = GetParam();
  MoveDownWorkload W;
  CompiledProgram CP = compileProgram(W.P, rearrangeOpts());
  Heap H(W.P);
  SatbMarker M(H);
  Interpreter I(W.P, CP, H);
  I.attachSatb(&M);
  ConcurrentRunConfig RC;
  RC.WarmupSteps = 777;
  RC.MutatorQuantum = MutQ;
  RC.MarkerQuantum = MarkQ;
  ConcurrentRunResult R = runWithConcurrentSatb(I, M, H, W.Main, {200}, RC);
  EXPECT_TRUE(R.OracleHolds)
      << "snapshot violated at mutQ=" << MutQ << " markQ=" << MarkQ;
  EXPECT_EQ(R.Status, RunStatus::Finished) << trapName(R.Trap);
}

INSTANTIATE_TEST_SUITE_P(
    Interleavings, RearrangeOracle,
    ::testing::Values(std::make_tuple(uint64_t(1), size_t(1)),
                      std::make_tuple(uint64_t(3), size_t(1)),
                      std::make_tuple(uint64_t(7), size_t(2)),
                      std::make_tuple(uint64_t(64), size_t(1)),
                      std::make_tuple(uint64_t(512), size_t(4)),
                      std::make_tuple(uint64_t(13), size_t(64))));

TEST(Rearrange, RetraceTriggersOnOverlap) {
  // The jbb workload builds a large enough live set that marking spans
  // many delete-loop executions; the protocol must record bracket
  // outcomes (clean exits and/or retraces) rather than staying silent.
  Workload W = makeJbbLike();
  CompiledProgram CP = compileProgram(*W.P, rearrangeOpts());
  Heap H(*W.P);
  SatbMarker M(H);
  Interpreter I(*W.P, CP, H);
  I.attachSatb(&M);
  ConcurrentRunConfig RC;
  RC.WarmupSteps = 4000; // deep inside the transaction steady state
  RC.MutatorQuantum = 256;
  RC.MarkerQuantum = 4;
  ConcurrentRunResult R = runWithConcurrentSatb(I, M, H, W.Entry, {3000}, RC);
  ASSERT_TRUE(R.OracleHolds);
  EXPECT_GT(M.stats().RearrangesEntered, 0u);
  EXPECT_GT(M.stats().RearrangesClean + M.stats().RearrangeRetraces, 0u);
}

TEST(Rearrange, DisabledByDefault) {
  MoveDownWorkload W;
  CompiledProgram CP = compileProgram(W.P, CompilerOptions{});
  EXPECT_EQ(CP.method(W.Delete).RearrangeLoops, 0u);
  for (bool B : CP.method(W.Delete).RearrangeStores)
    EXPECT_FALSE(B);
}

TEST(Rearrange, CardMarkingIgnoresProtocol) {
  // The protocol is SATB-specific; under card marking the stores behave
  // normally and the IU oracle still holds.
  MoveDownWorkload W;
  CompilerOptions Opts = rearrangeOpts();
  Opts.Barrier = BarrierMode::CardMarking;
  Opts.ApplyElision = false;
  CompiledProgram CP = compileProgram(W.P, Opts);
  Heap H(W.P);
  IncrementalUpdateMarker M(H);
  Interpreter I(W.P, CP, H);
  I.attachIncUpdate(&M);
  ConcurrentRunConfig RC;
  RC.WarmupSteps = 500;
  ConcurrentRunResult R =
      runWithConcurrentCycle(I, M, H, W.Main, {120}, RC);
  EXPECT_TRUE(R.OracleHolds);
}

TEST(Rearrange, JbbDeleteOrderLoopRecognized) {
  // The jbb workload's deleteOrder is the idiom the paper quotes; the
  // recognizer must find it after inlining.
  Workload W = makeJbbLike();
  CompiledProgram CP = compileProgram(*W.P, rearrangeOpts());
  uint32_t Loops = 0;
  for (const CompiledMethod &CM : CP.Methods)
    Loops += CM.RearrangeLoops;
  EXPECT_GT(Loops, 0u);

  Heap H(*W.P);
  SatbMarker M(H);
  Interpreter I(*W.P, CP, H);
  I.attachSatb(&M);
  ConcurrentRunConfig RC;
  RC.WarmupSteps = 4000;
  ConcurrentRunResult R = runWithConcurrentSatb(I, M, H, W.Entry, {400}, RC);
  EXPECT_TRUE(R.OracleHolds);
  EXPECT_EQ(R.Status, RunStatus::Finished);
}

// --- The swap idiom (db's sort) ---------------------------------------------

namespace {

/// x = arr[i]; y = arr[i+1]; arr[i] = y; arr[i+1] = x — db's idiom.
MethodId buildSwap(Program &P, const char *Name) {
  MethodBuilder B(P, Name, {JType::Ref, JType::Int}, std::nullopt);
  Local Arr = B.arg(0), I = B.arg(1);
  Local X = B.newLocal(JType::Ref), Y = B.newLocal(JType::Ref);
  B.aload(Arr).iload(I).aaload().astore(X);
  B.aload(Arr).iload(I).iconst(1).iadd().aaload().astore(Y);
  B.aload(Arr).iload(I).aload(Y).aastore();
  B.aload(Arr).iload(I).iconst(1).iadd().aload(X).aastore();
  B.ret();
  return B.finish();
}

} // namespace

TEST(RearrangeSwap, RecognizesSwapIdiom) {
  Program P;
  MethodId Id = buildSwap(P, "swap");
  RearrangeResult R = recognizeMoveDownLoops(P.method(Id));
  EXPECT_EQ(R.LoopsTransformed, 1u);
  const auto &Code = R.Transformed.Instructions;
  EXPECT_EQ(Code[0].Op, Opcode::RearrangeEnterDyn);
  EXPECT_EQ(Code[0].B, 1); // the index local (arg 1)
  unsigned Protocol = 0;
  for (size_t I = 0; I != Code.size(); ++I)
    if (R.ProtocolStores[I]) {
      ++Protocol;
      EXPECT_EQ(Code[I].Op, Opcode::AAStore);
    }
  EXPECT_EQ(Protocol, 2u) << "both swap stores run under the protocol";
  VerifyResult V = verifyMethod(P, R.Transformed);
  EXPECT_TRUE(V.Ok) << V.Error;
}

TEST(RearrangeSwap, RejectsNonSwapShapes) {
  Program P;
  // Same loads but stores to the same slot twice (not a permutation).
  MethodBuilder B(P, "notswap", {JType::Ref, JType::Int}, std::nullopt);
  Local Arr = B.arg(0), I = B.arg(1);
  Local X = B.newLocal(JType::Ref), Y = B.newLocal(JType::Ref);
  B.aload(Arr).iload(I).aaload().astore(X);
  B.aload(Arr).iload(I).iconst(1).iadd().aaload().astore(Y);
  B.aload(Arr).iload(I).aload(Y).aastore();
  B.aload(Arr).iload(I).iconst(1).iadd().aload(Y).aastore(); // x never stored
  B.ret();
  MethodId Id = B.finish();
  EXPECT_EQ(recognizeMoveDownLoops(P.method(Id)).LoopsTransformed, 0u);
}

TEST(RearrangeSwap, DbSortLoopRecognized) {
  Workload W = makeDbLike();
  CompiledProgram CP = compileProgram(*W.P, rearrangeOpts());
  uint32_t Regions = 0;
  for (const CompiledMethod &CM : CP.Methods)
    Regions += CM.RearrangeLoops;
  EXPECT_GT(Regions, 0u) << "db's swap idiom should be recognized";
}

class SwapOracle : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(SwapOracle, SnapshotPreservedThroughSwaps) {
  auto [MutQ, MarkQ] = GetParam();
  Workload W = makeDbLike();
  CompiledProgram CP = compileProgram(*W.P, rearrangeOpts());
  Heap H(*W.P);
  SatbMarker M(H);
  Interpreter I(*W.P, CP, H);
  I.attachSatb(&M);
  ConcurrentRunConfig RC;
  RC.WarmupSteps = 3000; // inside the swap-heavy steady state
  RC.MutatorQuantum = MutQ;
  RC.MarkerQuantum = MarkQ;
  ConcurrentRunResult R = runWithConcurrentSatb(I, M, H, W.Entry, {2000}, RC);
  EXPECT_TRUE(R.OracleHolds)
      << "snapshot violated at mutQ=" << MutQ << " markQ=" << MarkQ;
  EXPECT_EQ(R.Status, RunStatus::Finished) << trapName(R.Trap);
}

INSTANTIATE_TEST_SUITE_P(
    Interleavings, SwapOracle,
    ::testing::Values(std::make_tuple(uint64_t(1), size_t(1)),
                      std::make_tuple(uint64_t(2), size_t(1)),
                      std::make_tuple(uint64_t(5), size_t(1)),
                      std::make_tuple(uint64_t(9), size_t(2)),
                      std::make_tuple(uint64_t(33), size_t(8)),
                      std::make_tuple(uint64_t(256), size_t(2))));

TEST(RearrangeSwap, PauseMidSwapStillSound) {
  // Adversarial: quanta of 1 guarantee marking regularly pauses between
  // the two swap stores, the window where one element lives only in a
  // local. The enter-time log must cover it.
  Workload W = makeDbLike();
  CompiledProgram CP = compileProgram(*W.P, rearrangeOpts());
  for (uint64_t Warmup = 3000; Warmup != 3040; ++Warmup) {
    Heap H(*W.P);
    SatbMarker M(H);
    Interpreter I(*W.P, CP, H);
    I.attachSatb(&M);
    ConcurrentRunConfig RC;
    RC.WarmupSteps = Warmup; // slide the cycle start across the region
    RC.MutatorQuantum = 1;
    RC.MarkerQuantum = 1;
    ConcurrentRunResult R =
        runWithConcurrentSatb(I, M, H, W.Entry, {600}, RC);
    ASSERT_TRUE(R.OracleHolds) << "warmup " << Warmup;
  }
}
