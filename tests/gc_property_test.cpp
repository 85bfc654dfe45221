//===- tests/gc_property_test.cpp - Concurrent marking oracles ------------===//
///
/// \file
/// Property tests over random programs and adversarial mutator/marker
/// interleavings: SATB marking with elided (pre-null) barriers must
/// preserve the snapshot-at-the-beginning guarantee, and incremental
/// update must mark everything reachable at its final pause. This is the
/// end-to-end argument that the compile-time elision is safe for the
/// collector, not just statistically pre-null.
///
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"
#include "TestUtil.h"

#include "gc/MinorGC.h"
#include "workloads/Workload.h"

#include <type_traits>

using namespace satb;
using namespace satb::testutil;

namespace {

// gtest names each case after the raw bytes of its parameter, so the
// struct must have no padding: padding bytes are uninitialized and would
// make the test names differ from one process to the next. Seed is 64-bit
// for that reason only; the generator takes 32 bits.
struct Interleaving {
  uint64_t Seed;
  uint64_t Warmup;
  uint64_t MutQ;
  size_t MarkQ;
};
static_assert(std::has_unique_object_representations_v<Interleaving>,
              "Interleaving must have no padding bytes");

class SatbOracleProperty : public ::testing::TestWithParam<Interleaving> {};

std::vector<Interleaving> interleavings() {
  std::vector<Interleaving> Out;
  // Adversarial corners: marker starved, marker greedy, tiny quanta.
  const uint64_t Warmups[] = {0, 500, 5000};
  const std::pair<uint64_t, size_t> Quanta[] = {
      {1, 1}, {256, 2}, {16, 64}, {64, 16}};
  uint64_t Seed = 100;
  for (uint64_t W : Warmups)
    for (auto [MQ, KQ] : Quanta)
      Out.push_back(Interleaving{Seed++, W, MQ, KQ});
  return Out;
}

} // namespace

TEST_P(SatbOracleProperty, SnapshotPreservedWithElision) {
  const Interleaving &Cfg = GetParam();
  GeneratedProgram G = RandomProgramGenerator(Cfg.Seed).generate();
  CompilerOptions Opts; // elision ON, SATB barriers
  CompiledProgram CP = compileProgram(*G.P, Opts);
  Heap H(*G.P);
  SatbMarker M(H);
  Interpreter I(*G.P, CP, H);
  I.attachSatb(&M);

  ConcurrentRunConfig RC;
  RC.WarmupSteps = Cfg.Warmup;
  RC.MutatorQuantum = Cfg.MutQ;
  RC.MarkerQuantum = Cfg.MarkQ;
  RC.StepLimit = 2'000'000;
  ConcurrentRunResult R =
      runWithConcurrentSatb(I, M, H, G.Entry, {300}, RC);

  EXPECT_TRUE(R.OracleHolds) << "SATB snapshot violated, seed " << Cfg.Seed;
  EXPECT_EQ(I.stats().summarize().Violations, 0u);
  EXPECT_NE(R.Status, RunStatus::Trapped) << trapName(R.Trap);
}

TEST_P(SatbOracleProperty, SweepNeverFreesSnapshotLiveObjects) {
  // After sweep, re-running reachability from current roots must find
  // every object intact (no dangling references).
  const Interleaving &Cfg = GetParam();
  GeneratedProgram G = RandomProgramGenerator(Cfg.Seed + 7).generate();
  CompiledProgram CP = compileProgram(*G.P, CompilerOptions{});
  Heap H(*G.P);
  SatbMarker M(H);
  Interpreter I(*G.P, CP, H);
  I.attachSatb(&M);
  ConcurrentRunConfig RC;
  RC.WarmupSteps = Cfg.Warmup;
  RC.MutatorQuantum = Cfg.MutQ;
  RC.MarkerQuantum = Cfg.MarkQ;
  ConcurrentRunResult R = runWithConcurrentSatb(I, M, H, G.Entry, {200}, RC);
  ASSERT_TRUE(R.OracleHolds);
  // The mutator kept running after the sweep; if the sweep freed a live
  // object the interpreter would have tripped an assertion or trapped on
  // a dangling reference.
  EXPECT_NE(R.Status, RunStatus::Trapped) << trapName(R.Trap);
}

TEST_P(SatbOracleProperty, IncrementalUpdateOracle) {
  const Interleaving &Cfg = GetParam();
  GeneratedProgram G = RandomProgramGenerator(Cfg.Seed + 13).generate();
  CompilerOptions Opts;
  Opts.Barrier = BarrierMode::CardMarking;
  Opts.ApplyElision = false; // pre-null elision is SATB-specific
  CompiledProgram CP = compileProgram(*G.P, Opts);
  Heap H(*G.P);
  IncrementalUpdateMarker M(H);
  Interpreter I(*G.P, CP, H);
  I.attachIncUpdate(&M);
  ConcurrentRunConfig RC;
  RC.WarmupSteps = Cfg.Warmup;
  RC.MutatorQuantum = Cfg.MutQ;
  RC.MarkerQuantum = Cfg.MarkQ;
  ConcurrentRunResult R =
      runWithConcurrentCycle(I, M, H, G.Entry, {300}, RC);
  EXPECT_TRUE(R.OracleHolds) << "IU oracle violated, seed " << Cfg.Seed;
  EXPECT_NE(R.Status, RunStatus::Trapped) << trapName(R.Trap);
}

TEST_P(SatbOracleProperty, GenerationalNurserySnapshotPreserved) {
  // The generational pipeline end to end: BarrierMode::Generational with
  // pre-null elision ON, a deliberately tiny nursery so the allocation
  // slow path fires minor collections throughout the run (wholesale while
  // the SATB cycle is active, precise otherwise), and the snapshot oracle
  // at the final pause. RemSetViolations == 0 is the dynamic check that
  // every young-target elision the compiler proved actually held.
  const Interleaving &Cfg = GetParam();
  GeneratedProgram G = RandomProgramGenerator(Cfg.Seed + 21).generate();
  CompilerOptions Opts;
  Opts.Barrier = BarrierMode::Generational;
  CompiledProgram CP = compileProgram(*G.P, Opts);
  Heap H(*G.P);
  Heap::NurseryConfig NC;
  NC.NurseryBytes = 4096;
  NC.PretenureBytes = 512;
  H.enableNursery(NC);
  SatbMarker M(H);
  MinorGC Gen(H);
  Gen.attachMarker(&M);
  Gen.setRemSetValid(true);
  Interpreter I(*G.P, CP, H);
  I.attachSatb(&M);
  I.attachGen(&Gen);
  installNurseryHook(H, Gen, I);

  ConcurrentRunConfig RC;
  RC.WarmupSteps = Cfg.Warmup;
  RC.MutatorQuantum = Cfg.MutQ;
  RC.MarkerQuantum = Cfg.MarkQ;
  RC.StepLimit = 2'000'000;
  ConcurrentRunResult R = runWithConcurrentSatb(I, M, H, G.Entry, {300}, RC);

  EXPECT_TRUE(R.OracleHolds)
      << "generational snapshot violated, seed " << Cfg.Seed;
  BarrierStats::Summary S = I.stats().summarize();
  EXPECT_EQ(S.Violations, 0u);
  EXPECT_EQ(S.RemSetViolations, 0u);
  EXPECT_NE(R.Status, RunStatus::Trapped) << trapName(R.Trap);
}

TEST_P(SatbOracleProperty, IncrementalUpdateOracleWithNursery) {
  // The nursery under a non-generational barrier: nothing maintains the
  // remembered set, so every minor collection must promote wholesale and
  // free nothing; the incremental-update reachability oracle is the
  // end-to-end witness that this fallback is sound.
  const Interleaving &Cfg = GetParam();
  GeneratedProgram G = RandomProgramGenerator(Cfg.Seed + 13).generate();
  CompilerOptions Opts;
  Opts.Barrier = BarrierMode::CardMarking;
  Opts.ApplyElision = false;
  CompiledProgram CP = compileProgram(*G.P, Opts);
  Heap H(*G.P);
  Heap::NurseryConfig NC;
  NC.NurseryBytes = 4096;
  NC.PretenureBytes = 512;
  H.enableNursery(NC);
  IncrementalUpdateMarker M(H);
  MinorGC Gen(H);
  Gen.attachMarker(&M); // RemSetValid stays false: wholesale only
  Interpreter I(*G.P, CP, H);
  I.attachIncUpdate(&M);
  installNurseryHook(H, Gen, I);
  ConcurrentRunConfig RC;
  RC.WarmupSteps = Cfg.Warmup;
  RC.MutatorQuantum = Cfg.MutQ;
  RC.MarkerQuantum = Cfg.MarkQ;
  ConcurrentRunResult R =
      runWithConcurrentCycle(I, M, H, G.Entry, {300}, RC);
  EXPECT_TRUE(R.OracleHolds) << "IU+nursery oracle violated, seed "
                             << Cfg.Seed;
  EXPECT_NE(R.Status, RunStatus::Trapped) << trapName(R.Trap);
  EXPECT_EQ(Gen.stats().FreedYoung, 0u);
  EXPECT_EQ(Gen.stats().WholesalePromotions, Gen.stats().Collections);
}

INSTANTIATE_TEST_SUITE_P(Interleavings, SatbOracleProperty,
                         ::testing::ValuesIn(interleavings()));

// --- Workload-level GC integration ------------------------------------------

class WorkloadGc : public ::testing::TestWithParam<size_t> {};

TEST_P(WorkloadGc, SatbCycleOnRealWorkload) {
  Workload W = allWorkloads()[GetParam()];
  CompiledProgram CP = compileProgram(*W.P, CompilerOptions{});
  Heap H(*W.P);
  SatbMarker M(H);
  Interpreter I(*W.P, CP, H);
  I.attachSatb(&M);
  ConcurrentRunConfig RC;
  RC.WarmupSteps = 3000;
  ConcurrentRunResult R = runWithConcurrentSatb(I, M, H, W.Entry, {400}, RC);
  EXPECT_TRUE(R.OracleHolds) << W.Name;
  EXPECT_EQ(R.Status, RunStatus::Finished) << trapName(R.Trap);
  EXPECT_EQ(I.stats().summarize().Violations, 0u) << W.Name;
  EXPECT_GT(R.Marked, 0u);
}

TEST_P(WorkloadGc, SatbFinalPauseSmallerThanIncUpdate) {
  // The paper's motivation (Section 1): SATB termination pauses are much
  // smaller than incremental-update final pauses on mutation-heavy code.
  Workload W = allWorkloads()[GetParam()];
  ConcurrentRunConfig RC;
  RC.WarmupSteps = 2000;
  RC.MutatorQuantum = 512; // mutation-heavy interleaving
  RC.MarkerQuantum = 8;

  size_t SatbPause, IncPause;
  {
    CompiledProgram CP = compileProgram(*W.P, CompilerOptions{});
    Heap H(*W.P);
    SatbMarker M(H);
    Interpreter I(*W.P, CP, H);
    I.attachSatb(&M);
    SatbPause =
        runWithConcurrentSatb(I, M, H, W.Entry, {400}, RC).FinalPauseWork;
  }
  {
    CompilerOptions Opts;
    Opts.Barrier = BarrierMode::CardMarking;
    Opts.ApplyElision = false;
    CompiledProgram CP = compileProgram(*W.P, Opts);
    Heap H(*W.P);
    IncrementalUpdateMarker M(H);
    Interpreter I(*W.P, CP, H);
    I.attachIncUpdate(&M);
    IncPause = runWithConcurrentCycle(I, M, H, W.Entry, {400}, RC)
                   .FinalPauseWork;
  }
  // Not asserting the paper's "order of magnitude" here (scale-dependent);
  // the bench reports the actual ratio. But SATB must not be larger.
  EXPECT_LE(SatbPause, IncPause) << W.Name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadGc,
                         ::testing::Range<size_t>(0, 6));

TEST(WorkloadGc, GenerationalCycleCollectsAndPromotes) {
  // The allocation-heavy jbb workload against a small nursery: minor
  // collections must actually happen, survivors must actually promote,
  // and the concurrent SATB cycle layered on top must keep its oracle.
  Workload W = makeJbbLike();
  CompilerOptions Opts;
  Opts.Barrier = BarrierMode::Generational;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  Heap H(*W.P);
  Heap::NurseryConfig NC;
  NC.NurseryBytes = 4096;
  NC.PretenureBytes = 512;
  H.enableNursery(NC);
  SatbMarker M(H);
  MinorGC Gen(H);
  Gen.attachMarker(&M);
  Gen.setRemSetValid(true);
  Interpreter I(*W.P, CP, H);
  I.attachSatb(&M);
  I.attachGen(&Gen);
  installNurseryHook(H, Gen, I);
  ConcurrentRunConfig RC;
  RC.WarmupSteps = 3000;
  ConcurrentRunResult R = runWithConcurrentSatb(I, M, H, W.Entry, {400}, RC);
  EXPECT_TRUE(R.OracleHolds);
  EXPECT_EQ(R.Status, RunStatus::Finished) << trapName(R.Trap);
  BarrierStats::Summary S = I.stats().summarize();
  EXPECT_EQ(S.Violations, 0u);
  EXPECT_EQ(S.RemSetViolations, 0u);
  const MinorGCStats &GS = Gen.stats();
  EXPECT_GT(GS.Collections, 0u);
  EXPECT_GT(GS.PromotedObjects, 0u);
  EXPECT_GT(S.RemSetDirtied + S.RemSetElided, 0u);
}
