//===- tests/threaded_gc_test.cpp - Real-thread SATB cycles ---------------===//
///
/// \file
/// Stress tests of the real-thread marker (interp/ThreadedCycle.h): the
/// SATB snapshot oracle must hold under OS-scheduled interleavings, with
/// barrier elision on, across workloads and quantum mixes. These runs are
/// nondeterministic by design; the deterministic interleaved driver
/// remains the exhaustive test vehicle.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "bytecode/MethodBuilder.h"
#include "interp/FastInterp.h"
#include "interp/ThreadedCycle.h"
#include "jit/FastCode.h"
#include "support/ThreadPool.h"
#include "workloads/Workload.h"

#include "RandomProgram.h"

#include <algorithm>
#include <cstdlib>
#include <random>
#include <tuple>

using namespace satb;
using namespace satb::testutil;

namespace {

/// The real-thread driver's quanta in these tests: 128 mutator steps and
/// 32 marker units per hold of the coarse lock.
ConcurrentRunConfig threadedConfig() {
  ConcurrentRunConfig Cfg;
  Cfg.MutatorQuantum = 128;
  Cfg.MarkerQuantum = 32;
  return Cfg;
}

ConcurrentRunResult runThreaded(const Program &P, MethodId Entry,
                                int64_t Scale, const CompilerOptions &Opts,
                                ConcurrentRunConfig Cfg = threadedConfig()) {
  CompiledProgram CP = compileProgram(P, Opts);
  Heap H(P);
  SatbMarker M(H);
  Interpreter I(P, CP, H);
  I.attachSatb(&M);
  return runWithThreadedSatb(I, M, H, Entry, {Scale}, Cfg);
}

} // namespace

class ThreadedWorkload : public ::testing::TestWithParam<size_t> {};

TEST_P(ThreadedWorkload, SnapshotOracleHolds) {
  Workload W = allWorkloads()[GetParam()];
  ConcurrentRunConfig Cfg = threadedConfig();
  Cfg.WarmupSteps = 5000;
  ConcurrentRunResult R =
      runThreaded(*W.P, W.Entry, 600, CompilerOptions{}, Cfg);
  EXPECT_TRUE(R.OracleHolds) << W.Name;
  EXPECT_EQ(R.Status, RunStatus::Finished)
      << W.Name << ": " << trapName(R.Trap);
}

INSTANTIATE_TEST_SUITE_P(AllSix, ThreadedWorkload,
                         ::testing::Range<size_t>(0, 6));

TEST(ThreadedGc, TinyQuantaStress) {
  // Fine-grained handshakes maximize genuine interleaving.
  Workload W = makeJbbLike();
  ConcurrentRunConfig Cfg = threadedConfig();
  Cfg.WarmupSteps = 2000;
  Cfg.MutatorQuantum = 8;
  Cfg.MarkerQuantum = 2;
  ConcurrentRunResult R =
      runThreaded(*W.P, W.Entry, 800, CompilerOptions{}, Cfg);
  EXPECT_TRUE(R.OracleHolds);
  EXPECT_EQ(R.Status, RunStatus::Finished) << trapName(R.Trap);
}

TEST(ThreadedGc, RandomProgramsUnderThreadedMarking) {
  for (uint32_t Seed = 300; Seed != 306; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    ConcurrentRunConfig Cfg = threadedConfig();
    Cfg.WarmupSteps = 500;
    Cfg.MutatorQuantum = 16;
    Cfg.MarkerQuantum = 4;
    ConcurrentRunResult R =
        runThreaded(*G.P, G.Entry, 200, CompilerOptions{}, Cfg);
    EXPECT_TRUE(R.OracleHolds) << "seed " << Seed;
    EXPECT_NE(R.Status, RunStatus::Trapped) << trapName(R.Trap);
  }
}

TEST(ThreadedGc, RearrangeProtocolUnderThreadedMarking) {
  Workload W = makeJbbLike();
  CompilerOptions Opts;
  Opts.EnableArrayRearrange = true;
  ConcurrentRunConfig Cfg = threadedConfig();
  Cfg.WarmupSteps = 3000;
  Cfg.MutatorQuantum = 32;
  Cfg.MarkerQuantum = 4;
  ConcurrentRunResult R = runThreaded(*W.P, W.Entry, 800, Opts, Cfg);
  EXPECT_TRUE(R.OracleHolds);
  EXPECT_EQ(R.Status, RunStatus::Finished) << trapName(R.Trap);
}

TEST(ThreadedGc, MarkerFinishingEarlyIsFine) {
  // A tiny program: the marker drains almost immediately; the cycle must
  // still terminate cleanly and the oracle hold.
  Workload W = makeDbLike();
  ConcurrentRunConfig Cfg = threadedConfig();
  Cfg.WarmupSteps = 100;
  Cfg.MarkerQuantum = 4096;
  ConcurrentRunResult R =
      runThreaded(*W.P, W.Entry, 300, CompilerOptions{}, Cfg);
  EXPECT_TRUE(R.OracleHolds);
  EXPECT_EQ(R.Status, RunStatus::Finished);
}

// --- Multi-mutator cycles (runWithConcurrentMutators) -----------------------

namespace {

/// Mark-thread grid for the multi-mutator tests. {1, 2} by default; the
/// SATB_MARK_THREADS env knob (used by the TSan CI job and the nightly
/// stress matrix) appends an extra value, e.g. 4.
std::vector<unsigned> markThreadGrid() {
  std::vector<unsigned> G{1, 2};
  if (const char *Env = std::getenv("SATB_MARK_THREADS")) {
    unsigned N = static_cast<unsigned>(std::atoi(Env));
    if (N > 0 && std::find(G.begin(), G.end(), N) == G.end())
      G.push_back(N);
  }
  return G;
}

/// Iteration multiplier for the stress tests: 1 by default, raised by the
/// scheduled nightly CI run via SATB_STRESS_ITERS.
unsigned stressIters() {
  if (const char *Env = std::getenv("SATB_STRESS_ITERS")) {
    int N = std::atoi(Env);
    if (N > 0)
      return static_cast<unsigned>(N);
  }
  return 1;
}

MultiMutatorResult runMulti(unsigned Mutators, MultiMarkerKind Kind,
                            int64_t Scale, MultiMutatorConfig Cfg = {}) {
  Workload W = makeJbbLike();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  Opts.Barrier = Kind == MultiMarkerKind::Satb ? BarrierMode::Satb
                                               : BarrierMode::CardMarking;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  Cfg.Marker = Kind;
  return runWithConcurrentMutators(Mutators, *W.P, CP, W.Entry, {Scale}, Cfg);
}

void expectClean(const MultiMutatorResult &R, const char *What) {
  EXPECT_TRUE(R.OracleHolds) << What;
  EXPECT_EQ(R.Violations, 0u) << What;
  for (size_t T = 0; T != R.Statuses.size(); ++T) {
    EXPECT_TRUE(R.Statuses[T] == RunStatus::Finished ||
                R.Statuses[T] == RunStatus::Trapped)
        << What << ": mutator " << T << " hit the step limit";
    EXPECT_EQ(R.Traps[T], TrapKind::None) << What << ": mutator " << T;
  }
}

} // namespace

class MultiMutator
    : public ::testing::TestWithParam<
          std::tuple<unsigned, MultiMarkerKind, unsigned, bool>> {};

TEST_P(MultiMutator, OracleHoldsAtFinalPause) {
  auto [N, Kind, MarkThreads, Fuse] = GetParam();
  // jbb allocates roughly one object per scale unit per mutator; the
  // warmup threshold must leave plenty of mutation for the marking window.
  MultiMutatorConfig Cfg;
  Cfg.WarmupAllocs = 300;
  Cfg.MarkThreads = MarkThreads;
  Cfg.Fuse = Fuse;
  MultiMutatorResult R = runMulti(N, Kind, 800, Cfg);
  const char *What =
      Kind == MultiMarkerKind::Satb ? "SATB" : "incremental-update";
  expectClean(R, What);
  EXPECT_EQ(R.Statuses.size(), N);
  EXPECT_GT(R.Marked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiMutator,
    ::testing::Combine(::testing::Values(2u, 4u),
                       ::testing::Values(MultiMarkerKind::Satb,
                                         MultiMarkerKind::IncrementalUpdate),
                       ::testing::ValuesIn(markThreadGrid()),
                       /*superinstruction fusion*/ ::testing::Bool()));

TEST(MultiMutator, ScriptedCycleRunsWhenMutatorsExitBeforeWarmup) {
  // A warmup threshold far above what the program allocates: every
  // mutator exits first, and the scripted policy's one cycle runs after
  // the last exit against the quiesced heap. The pacer is pinned off so
  // the SATB_PACER environment cannot swap the policy.
  for (MultiMarkerKind Kind :
       {MultiMarkerKind::Satb, MultiMarkerKind::IncrementalUpdate}) {
    MultiMutatorConfig Cfg;
    Cfg.Pacer.Enabled = false;
    Cfg.WarmupAllocs = uint64_t(1) << 40;
    MultiMutatorResult R = runMulti(2, Kind, 200, Cfg);
    const char *What =
        Kind == MultiMarkerKind::Satb ? "SATB" : "incremental-update";
    expectClean(R, What);
    EXPECT_EQ(R.Cycles, 1u) << What;
    EXPECT_GT(R.Marked, 0u) << What;
  }
}

TEST(MultiMutator, TinyPollQuantaStress) {
  // One-step quanta make the driver check for a pending pause and resume
  // the engine at every instruction — with fusion on, routinely in the
  // middle of a superinstruction. Parks still happen only at translated
  // polls (or before a run's first instruction), so this maximizes
  // resume traffic without adding park sites.
  for (bool Fuse : {true, false}) {
    MultiMutatorConfig Cfg;
    Cfg.PollQuantum = 1;
    Cfg.MarkerQuantum = 2;
    Cfg.WarmupAllocs = 50;
    Cfg.Fuse = Fuse;
    MultiMutatorResult R = runMulti(2, MultiMarkerKind::Satb, 200, Cfg);
    expectClean(R, Fuse ? "tiny-quanta SATB fused"
                        : "tiny-quanta SATB unfused");
  }
}

TEST(MultiMutator, ShardMergeIsExactPerSite) {
  // Determinism of the sharded instrumentation: summing each flat site
  // slot across the per-thread shards independently must reproduce the
  // merged BarrierStats bit-for-bit.
  MultiMutatorConfig Cfg;
  Cfg.WarmupAllocs = 200;
  MultiMutatorResult R = runMulti(4, MultiMarkerKind::Satb, 300, Cfg);
  expectClean(R, "shard merge");
  ASSERT_EQ(R.Shards.size(), 4u);
  const std::vector<SiteStats> &Merged = R.Merged.flat();
  for (size_t I = 0; I != Merged.size(); ++I) {
    SiteStats Sum = R.Shards[0].flat()[I];
    for (size_t T = 1; T != R.Shards.size(); ++T) {
      const SiteStats &S = R.Shards[T].flat()[I];
      Sum.Execs += S.Execs;
      Sum.PreNull += S.PreNull;
      Sum.Elided += S.Elided;
      Sum.Rearranged += S.Rearranged;
      Sum.Violations += S.Violations;
    }
    ASSERT_EQ(Sum, Merged[I]) << "flat site " << I;
  }
}

TEST(MultiMutator, SatbBuffersReachTheMarker) {
  // The jbb workload overwrites non-null fields, so per-thread buffers
  // must flow to the marker whenever mutation overlaps the marking window.
  // The overlap is OS-scheduled; retry a couple of times rather than
  // assume one particular schedule.
  uint64_t Logged = 0;
  for (int Attempt = 0; Attempt != 3 && Logged == 0; ++Attempt) {
    MultiMutatorConfig Cfg;
    Cfg.WarmupAllocs = 300;
    Cfg.MarkerQuantum = 8;
    MultiMutatorResult R = runMulti(4, MultiMarkerKind::Satb, 1500, Cfg);
    expectClean(R, "SATB buffers");
    Logged = R.LoggedPreValues;
  }
  EXPECT_GT(Logged, 0u);
}

TEST(MultiMutator, SingleMutatorStepsMatchPlainFastRun) {
  // N=1 under the full safepoint/TLAB protocol must execute exactly the
  // steps a plain FastInterp run executes: translated Safepoint polls
  // refund their fuel and the driver never perturbs the instruction
  // stream. Pin fusion on both sides; fused handlers charge the sum of
  // their parts, so the count must also agree *across* the two rounds.
  Workload W = makeJbbLike();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  CompiledProgram CP = compileProgram(*W.P, Opts);

  uint64_t UnfusedSteps = 0;
  for (bool Fuse : {false, true}) {
    TranslateOptions TO;
    TO.Fuse = Fuse;
    FastProgram FP = translateProgram(*W.P, CP, TO);
    Heap H(*W.P);
    FastInterp Plain(FP, CP, H);
    ASSERT_EQ(Plain.run(W.Entry, {300}), RunStatus::Finished);

    MultiMutatorConfig Cfg;
    Cfg.Fuse = Fuse;
    MultiMutatorResult R = runMulti(1, MultiMarkerKind::Satb, 300, Cfg);
    ASSERT_EQ(R.Statuses[0], RunStatus::Finished);
    EXPECT_EQ(R.Steps[0], Plain.stepsExecuted())
        << (Fuse ? "fused" : "unfused");
    if (!Fuse)
      UnfusedSteps = Plain.stepsExecuted();
    else
      EXPECT_EQ(Plain.stepsExecuted(), UnfusedSteps)
          << "fusion changed the observable step count";
  }
}

TEST(MultiMutator, RandomProgramsUnderMultiMutatorMarking) {
  // Alternate fusion by seed so both translations see random shapes
  // without doubling the grid.
  for (uint32_t Seed = 400; Seed != 404; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    CompilerOptions Opts;
    Opts.Interp = InterpMode::Fast;
    CompiledProgram CP = compileProgram(*G.P, Opts);
    MultiMutatorConfig Cfg;
    Cfg.WarmupAllocs = 50;
    Cfg.MarkerQuantum = 4;
    Cfg.Fuse = Seed % 2 == 0;
    MultiMutatorResult R =
        runWithConcurrentMutators(3, *G.P, CP, G.Entry, {150}, Cfg);
    EXPECT_TRUE(R.OracleHolds) << "seed " << Seed;
    EXPECT_EQ(R.Violations, 0u) << "seed " << Seed;
  }
}

namespace {

/// Bulk-store workload for the concurrent grids: per transaction one
/// elided fill of a fresh 16-slot array, a kept range refill and an
/// overlapping self-copy (the memmove-style backward path) of a
/// published array, and a kept bulk copy between the two. All arrays
/// are mutator-local; the static sink exists only as the escape point,
/// so the interesting races are between the bulk heap paths
/// (storeRefRangeFill/Copy, markRangeWords) and the marker — exactly
/// what the TSan grid should see.
Workload makeBulkStoreWorkload() {
  Workload W;
  W.Name = "bulk-mm";
  W.Description = "bulk stores under concurrent marking";
  W.P = std::make_shared<Program>();
  Program &P = *W.P;
  StaticFieldId Sink = P.addStaticField("sink", JType::Ref);
  MethodBuilder B(P, "main", {JType::Int}, JType::Int);
  Local N = B.arg(0), T = B.newLocal(JType::Int);
  Local Old = B.newLocal(JType::Ref), Fresh = B.newLocal(JType::Ref);
  Label Head = B.newLabel(), Done = B.newLabel();
  B.iconst(16).newRefArray().astore(Old);
  B.aload(Old).putstatic(Sink); // escape: the range barriers below stay
  B.iconst(0).istore(T);
  B.bind(Head).iload(T).iload(N).ifICmpGe(Done);
  // Elided: in-order init of a fresh array (Section 3 range proof).
  B.iconst(16).newRefArray().astore(Fresh);
  B.aload(Fresh).aload(Fresh).iconst(0).iconst(16).arrayfill();
  // Kept range fill: republishes non-null pre-values after the first
  // transaction, so an active SATB window logs whole ranges.
  B.aload(Old).aload(Fresh).iconst(4).iconst(8).arrayfill();
  // Kept overlapping self-copy: src [0,8) into dst [1,9).
  B.aload(Old).iconst(0).aload(Old).iconst(1).iconst(8).arraycopy();
  // Kept bulk copy of fresh values into the published array.
  B.aload(Fresh).iconst(0).aload(Old).iconst(0).iconst(4).arraycopy();
  B.iinc(T, 1).jump(Head);
  B.bind(Done).iload(T).ireturn();
  W.Entry = B.finish();
  return W;
}

} // namespace

TEST(MultiMutator, BulkStoresUnderConcurrentMarking) {
  Workload W = makeBulkStoreWorkload();
  for (MultiMarkerKind Kind :
       {MultiMarkerKind::Satb, MultiMarkerKind::IncrementalUpdate}) {
    for (bool Fuse : {true, false}) {
      CompilerOptions Opts;
      Opts.Interp = InterpMode::Fast;
      Opts.Barrier = Kind == MultiMarkerKind::Satb ? BarrierMode::Satb
                                                   : BarrierMode::CardMarking;
      CompiledProgram CP = compileProgram(*W.P, Opts);
      MultiMutatorConfig Cfg;
      Cfg.WarmupAllocs = 100;
      Cfg.MarkerQuantum = 8;
      Cfg.Fuse = Fuse;
      Cfg.MarkThreads = markThreadGrid().back();
      Cfg.Marker = Kind;
      MultiMutatorResult R =
          runWithConcurrentMutators(4, *W.P, CP, W.Entry, {400}, Cfg);
      expectClean(R, Kind == MultiMarkerKind::Satb ? "bulk SATB"
                                                   : "bulk inc-update");
      EXPECT_GT(R.Marked, 0u);
    }
  }
}

// --- Generational nursery under multi-mutator marking -----------------------

TEST(MultiMutator, GenerationalNurseryGrid) {
  // Nursery-enabled multi-mutator runs: TLAB chunks carve from the
  // nursery and the coordinator serves stop-the-world minor collections
  // whenever a refill finds it exhausted. Generational mode keeps the
  // remembered set valid (precise collections while the marker is idle);
  // the same nursery under plain SATB has no remembered-set barrier and
  // must fall back to wholesale promotion at every collection. Both must
  // keep the marking oracle and the justification counters clean.
  //
  // Whether a refill-raised request is served while the mutators are
  // still alive (promoting their live young objects) is OS-scheduled;
  // like SatbBuffersReachTheMarker above, retry a few times for the
  // overlap instead of assuming one particular schedule. The safety
  // invariants are asserted on every attempt.
  Workload W = makeJbbLike();
  for (BarrierMode Mode : {BarrierMode::Generational, BarrierMode::Satb}) {
    for (bool Fuse : {true, false}) {
      CompilerOptions Opts;
      Opts.Interp = InterpMode::Fast;
      Opts.Barrier = Mode;
      CompiledProgram CP = compileProgram(*W.P, Opts);
      std::string What =
          std::string(Mode == BarrierMode::Generational ? "generational"
                                                        : "satb-wholesale") +
          (Fuse ? "/fused" : "/unfused");
      uint64_t Promoted = 0;
      for (int Attempt = 0; Attempt != 5 && Promoted == 0; ++Attempt) {
        MultiMutatorConfig Cfg;
        Cfg.WarmupAllocs = 300;
        Cfg.Fuse = Fuse;
        // Vary the marking backend with fusion to cover the
        // parallel-marker combination without doubling the grid.
        Cfg.MarkThreads = Fuse ? 2 : 1;
        Cfg.EnableNursery = true;
        // Two TLAB chunks' worth: with three mutators the very first
        // refill round already exhausts the nursery and raises the
        // minor-GC request.
        Cfg.NurseryBytes = 16 * 1024;
        MultiMutatorResult R =
            runWithConcurrentMutators(3, *W.P, CP, W.Entry, {20000}, Cfg);
        expectClean(R, What.c_str());
        EXPECT_GE(R.Minor.Collections, 1u) << What; // the final one at least
        if (Mode == BarrierMode::Satb) {
          // No generational barrier: every collection is wholesale.
          EXPECT_EQ(R.Minor.WholesalePromotions, R.Minor.Collections) << What;
          EXPECT_EQ(R.Minor.FreedYoung, 0u) << What;
        }
        uint64_t RemSetViolations = 0;
        for (const SiteStats &S : R.Merged.flat())
          RemSetViolations += S.RemSetViolations;
        EXPECT_EQ(RemSetViolations, 0u) << What;
        Promoted = R.Minor.PromotedObjects;
      }
      EXPECT_GT(Promoted, 0u) << What;
    }
  }
}

TEST(MultiMutator, GenerationalNurseryTinyQuanta) {
  // The grid's generational configuration with one-step quanta: a fuel
  // boundary falls between every pair of instructions, including between
  // a `new` and the elided young-target stores into it. A minor
  // collection served at such a boundary would promote the half-built
  // object and turn those elisions into remembered-set violations, so
  // this catches a driver that parks anywhere but at a GC point on any
  // CPU count, not only when the coordinator happens to run mid-slice.
  Workload W = makeJbbLike();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  Opts.Barrier = BarrierMode::Generational;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  for (bool Fuse : {true, false}) {
    const char *What = Fuse ? "tiny-quanta generational fused"
                            : "tiny-quanta generational unfused";
    MultiMutatorConfig Cfg;
    Cfg.PollQuantum = 1;
    Cfg.WarmupAllocs = 300;
    Cfg.Fuse = Fuse;
    Cfg.MarkThreads = Fuse ? 2 : 1;
    Cfg.EnableNursery = true;
    Cfg.NurseryBytes = 16 * 1024;
    MultiMutatorResult R =
        runWithConcurrentMutators(3, *W.P, CP, W.Entry, {20000}, Cfg);
    expectClean(R, What);
    EXPECT_GE(R.Minor.Collections, 1u) << What;
    EXPECT_EQ(R.RemSetViolations, 0u) << What;
  }
}

TEST(MultiMutator, RandomProgramsWithNursery) {
  // Random shapes through the generational multi-mutator path; tiny
  // nursery to maximize collection traffic relative to program size.
  for (uint32_t Seed = 450; Seed != 454; ++Seed) {
    GeneratedProgram G = RandomProgramGenerator(Seed).generate();
    CompilerOptions Opts;
    Opts.Interp = InterpMode::Fast;
    Opts.Barrier = BarrierMode::Generational;
    CompiledProgram CP = compileProgram(*G.P, Opts);
    MultiMutatorConfig Cfg;
    Cfg.WarmupAllocs = 50;
    Cfg.MarkerQuantum = 4;
    Cfg.Fuse = Seed % 2 == 0;
    Cfg.EnableNursery = true;
    Cfg.NurseryBytes = 32 * 1024;
    MultiMutatorResult R =
        runWithConcurrentMutators(3, *G.P, CP, G.Entry, {150}, Cfg);
    EXPECT_TRUE(R.OracleHolds) << "seed " << Seed;
    EXPECT_EQ(R.Violations, 0u) << "seed " << Seed;
    EXPECT_GE(R.Minor.Collections, 1u) << "seed " << Seed;
  }
}

// --- Parallel marking (sharded mark stacks, MarkThreads > 1) ----------------

TEST(MultiMutator, MarkOnceUnderParallelMarking) {
  // The mark-once property: with M workers claiming objects through the
  // atomic mark word, every object is traced at most once, and every
  // object of the SATB start-of-marking snapshot exactly once.
  for (unsigned MarkThreads : {2u, 4u}) {
    for (MultiMarkerKind Kind :
         {MultiMarkerKind::Satb, MultiMarkerKind::IncrementalUpdate}) {
      MultiMutatorConfig Cfg;
      Cfg.WarmupAllocs = 300;
      Cfg.MarkThreads = MarkThreads;
      Cfg.DebugTraceCounts = true;
      MultiMutatorResult R = runMulti(4, Kind, 800, Cfg);
      expectClean(R, "mark-once");
      ASSERT_FALSE(R.TraceCounts.empty());
      uint64_t Traced = 0;
      for (size_t Ref = 1; Ref != R.TraceCounts.size(); ++Ref) {
        ASSERT_LE(R.TraceCounts[Ref], 1u)
            << "object " << Ref << " traced twice (M=" << MarkThreads << ")";
        Traced += R.TraceCounts[Ref];
      }
      EXPECT_GT(Traced, 0u);
      for (size_t Ref = 1; Ref < R.SnapshotSet.size(); ++Ref) {
        if (R.SnapshotSet[Ref]) {
          ASSERT_EQ(R.TraceCounts[Ref], 1u)
              << "snapshot object " << Ref << " not traced exactly once";
        }
      }
    }
  }
}

TEST(MultiMutator, NightlyStressMatrix) {
  // Quick by default (one round); the scheduled nightly CI run raises
  // SATB_STRESS_ITERS and SATB_MARK_THREADS for a longer randomized soak.
  const unsigned Iters = stressIters();
  const std::vector<unsigned> Threads = markThreadGrid();
  for (unsigned It = 0; It != Iters; ++It) {
    for (uint32_t Seed = 500 + It * 7; Seed != 502 + It * 7; ++Seed) {
      GeneratedProgram G = RandomProgramGenerator(Seed).generate();
      CompilerOptions Opts;
      Opts.Interp = InterpMode::Fast;
      CompiledProgram CP = compileProgram(*G.P, Opts);
      MultiMutatorConfig Cfg;
      Cfg.WarmupAllocs = 50;
      Cfg.MarkerQuantum = 4;
      Cfg.MarkThreads = Threads.back();
      Cfg.Fuse = Seed % 2 == 0;
      MultiMutatorResult R =
          runWithConcurrentMutators(3, *G.P, CP, G.Entry, {150}, Cfg);
      EXPECT_TRUE(R.OracleHolds) << "seed " << Seed;
      EXPECT_EQ(R.Violations, 0u) << "seed " << Seed;
    }
  }
}

// --- Parallel marker replay: direct marker runs on a fixed graph ------------

namespace {

/// A random object graph plus a recorded SATB log, for replaying the same
/// marking inputs through different MarkThreads settings.
struct ReplayGraph {
  Program P;
  std::unique_ptr<Heap> H;
  std::vector<ObjRef> Objs;
  std::vector<ObjRef> Roots;
  std::vector<ObjRef> Log;

  explicit ReplayGraph(uint32_t Seed, size_t NumObjs = 3000) {
    ClassId C = P.addClass("Node");
    P.addField(C, "a", JType::Ref);
    P.addField(C, "b", JType::Ref);
    H = std::make_unique<Heap>(P);
    std::mt19937 Rng(Seed);
    for (size_t I = 0; I != NumObjs; ++I)
      Objs.push_back(H->allocateObject(C));
    // Arbitrary edges, cycles included.
    for (ObjRef R : Objs) {
      H->object(R).refs()[0] = Objs[Rng() % Objs.size()];
      H->object(R).refs()[1] = Objs[Rng() % Objs.size()];
    }
    for (int I = 0; I != 6; ++I)
      Roots.push_back(Objs[Rng() % Objs.size()]);
    // The recorded SATB log: pre-values a mutator would have handed over.
    for (int I = 0; I != 400; ++I)
      Log.push_back(Objs[Rng() % Objs.size()]);
  }

  std::vector<bool> markBitmap() const {
    std::vector<bool> Marked(H->maxRef() + 1, false);
    for (ObjRef R = 1; R <= H->maxRef(); ++R)
      Marked[R] = H->isMarked(R);
    return Marked;
  }
};

} // namespace

TEST(ParallelMark, SatbBitIdenticalToSerialOnRecordedLog) {
  // The same snapshot roots and the same recorded SATB log must produce a
  // bit-identical mark bitmap whether one worker drains or four do.
  ReplayGraph G(42);
  std::vector<bool> Serial;
  uint64_t SerialMarked = 0;
  for (unsigned M : {1u, 2u, 4u}) {
    ThreadPool Pool(M);
    SatbMarker Marker(*G.H, 64);
    if (M > 1)
      Marker.setMarkThreads(M, &Pool);
    Marker.enableTraceCounts(G.H->maxRef() + 1);
    Marker.beginMarking(G.Roots);
    std::vector<ObjRef> LogCopy = G.Log;
    Marker.flushBuffer(std::move(LogCopy));
    while (!Marker.markStep(64))
      ;
    Marker.finishMarking();
    std::vector<bool> Marked = G.markBitmap();
    // Mark-once, and traced exactly the marked objects (nothing is
    // allocated during this cycle, so born-marked objects don't exist).
    for (ObjRef R = 1; R <= G.H->maxRef(); ++R)
      ASSERT_EQ(Marker.traceCount(R), Marked[R] ? 1u : 0u)
          << "object " << R << " at M=" << M;
    if (M == 1) {
      Serial = Marked;
      SerialMarked = Marker.stats().MarkedObjects;
      EXPECT_GT(SerialMarked, 0u);
    } else {
      EXPECT_EQ(Marked, Serial) << "mark bitmap diverged at M=" << M;
      EXPECT_EQ(Marker.stats().MarkedObjects, SerialMarked);
    }
    G.H->clearMarks();
  }
}

TEST(ParallelMark, IncUpdateBitIdenticalToSerialOnRecordedWrites) {
  // Same shape for the incremental-update marker: identical roots and an
  // identical recorded mutation sequence (slot stores + card dirtying
  // between the root scan and the drain) must mark the same set for every
  // MarkThreads value.
  std::vector<bool> Serial;
  for (unsigned M : {1u, 2u, 4u}) {
    ReplayGraph G(99); // fresh heap per run so card state starts clean
    ThreadPool Pool(M);
    IncrementalUpdateMarker Marker(*G.H);
    if (M > 1)
      Marker.setMarkThreads(M, &Pool);
    Marker.enableTraceCounts(G.H->maxRef() + 1);
    Marker.beginMarking(G.Roots);
    // Replay the recorded writes: redirect slots deterministically and
    // dirty the written objects' cards, exactly as the barrier would.
    std::mt19937 Rng(7);
    for (ObjRef Src : G.Log) {
      ObjRef Dst = G.Objs[Rng() % G.Objs.size()];
      G.H->object(Src).refs()[Rng() % 2] = Dst;
      Marker.recordWrite(Src);
    }
    while (!Marker.markStep(64))
      ;
    Marker.finishMarking(G.Roots);
    for (ObjRef R = 1; R <= G.H->maxRef(); ++R)
      ASSERT_LE(Marker.traceCount(R), 1u) << "object " << R << " at M=" << M;
    std::vector<bool> Marked = G.markBitmap();
    if (M == 1)
      Serial = Marked;
    else
      EXPECT_EQ(Marked, Serial) << "mark bitmap diverged at M=" << M;
  }
}
