//===- e2ebench/src/CompileWorkload.cpp - The `compile` workload ----------===//
///
/// \file
/// A seeded pool of programs, compiled serially and translated, pass
/// after pass. The pool mixes three kinds so the analysis sees the shapes
/// it meets in practice:
///
///  - random programs from tests/RandomProgram.h: small, every feature;
///  - the six Table 1 workloads at several inline limits (Figure 2's
///    axis), where inlining sets the method size the analysis sees;
///  - large straight-line methods like bench/analysis_scaling's, where
///    the fixpoint's superlinear cost shows.
///
/// The seed draws the random programs; the rest of the pool is fixed, so
/// passes cost about the same on every seed. One pass is the unit of
/// work: the vCPU rotates per pass. Every item is timed on every pass,
/// and its time is its fastest over the passes (see fastest()). Each
/// compiled program is then run on the fast engine under a concurrent
/// marking cycle and checked against the reference engine, outside the
/// timed region.
///
//===----------------------------------------------------------------------===//

#include "Execute.h"

#include "RandomProgram.h"
#include "bytecode/MethodBuilder.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <random>

using namespace satb;
using namespace e2e;

namespace {

constexpr unsigned NumRandom = 600;
constexpr uint32_t InlineLimits[] = {0, 25, 50, 100, 200};
constexpr unsigned StraightBlocks[] = {32, 48, 64, 80, 96, 112, 128, 144, 160};

struct Item {
  std::shared_ptr<Program> P;
  MethodId Entry = InvalidId;
  CompilerOptions Opts;
  std::vector<int64_t> Args;
  Observation Expected;
};

/// bench/analysis_scaling's method shape: \p Blocks copies of "allocate
/// a Pair, initialize both fields, fill two slots of a fresh array" in
/// one loop. Not seeded: these items fix the pool's heavy tail, so its
/// cost does not move with the seed.
std::shared_ptr<Program> straightLine(unsigned Blocks, MethodId &Entry) {
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
  Entry = B.finish();
  return P;
}

CompilerOptions serialFast(uint32_t InlineLimit) {
  CompilerOptions Opts;
  Opts.Inline.InlineLimit = InlineLimit;
  Opts.CompileThreads = 1;
  Opts.Interp = InterpMode::Fast;
  return Opts;
}

/// Expected values come from the reference engine running a compile with
/// no inlining and no analysis — the path that shares least with the
/// measured one.
Observation expectedFor(const Program &P, MethodId Entry,
                        const std::vector<int64_t> &Args) {
  CompilerOptions Base;
  Base.Inline.InlineLimit = 0;
  Base.Analysis.Mode = AnalysisMode::None;
  Base.CompileThreads = 1;
  return runReference(P, compileProgram(P, Base), Entry, Args);
}

std::vector<Item> buildPool(uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<Item> Pool;
  for (unsigned I = 0; I != NumRandom; ++I) {
    testutil::RandomProgramGenerator Gen(static_cast<uint32_t>(Rng()));
    testutil::GeneratedProgram G = Gen.generate();
    Item It;
    It.P = G.P;
    It.Entry = G.Entry;
    It.Opts = serialFast(100);
    It.Args = {20};
    Pool.push_back(std::move(It));
  }
  for (const Workload &W : allWorkloads()) {
    std::vector<int64_t> Args = {10};
    Observation Expected = expectedFor(*W.P, W.Entry, Args);
    for (uint32_t Limit : InlineLimits)
      Pool.push_back({W.P, W.Entry, serialFast(Limit), Args, Expected});
  }
  for (unsigned Blocks : StraightBlocks) {
    Item It;
    It.P = straightLine(Blocks, It.Entry);
    It.Opts = serialFast(100);
    It.Args = {2};
    Pool.push_back(std::move(It));
  }
  for (Item &It : Pool)
    if (It.Expected.Status == RunStatus::NotStarted)
      It.Expected = expectedFor(*It.P, It.Entry, It.Args);
  return Pool;
}

} // namespace

Report e2e::runCompile(const Options &O) {
  Report R;
  CpuRotation Rot(O.Seed);
  std::vector<Item> Pool;
  SetUpTime SetUp = timeSetUps(O, Rot, [&] { Pool = buildPool(O.Seed); });
  if (O.CorruptExpected)
    for (Item &It : Pool)
      ++It.Expected.Result;

  const size_t N = Pool.size();
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  std::mt19937_64 OrderRng(O.Seed ^ 0x9e3779b97f4a7c15ull);

  // Per item, over the untraced passes: compile CPU time and the CPU time
  // of the checking run's runWithConcurrentSatb call.
  std::vector<std::vector<double>> CompileNs(N), DriverNs(N);
  std::vector<uint64_t> Bytecodes(N), Steps(N);
  std::vector<double> UntracedPassCpuNs, TracedPassCpuNs, RssMb;
  double TracedWallNs = 0;
  uint64_t CodeSize = 0, StoresElided = 0, Stores = 0;
  Tracer Tr;
  CompileCounters Counters;
  int TracedPasses = 0, Passes = 0;

  int64_t MeasureStart = 0;
  // Pass -1 warms caches and lazy state; it is checked but not recorded.
  for (int Pass = -1;; ++Pass) {
    if (Pass == 0)
      MeasureStart = nowNs();
    else if (Pass > 0 && nowNs() - MeasureStart >= int64_t(O.Seconds * 1e9))
      break;
    const bool Traced = O.Trace && Pass >= 0 && tracedUnit(Pass, Rot);
    const bool Recorded = Pass >= 0 && !Traced;
    Tracer *T = Traced ? &Tr : nullptr;
    std::shuffle(Order.begin(), Order.end(), OrderRng);
    Rot.next();
    resetPeakRss();
    int64_t PassNs = 0, PassCpuNs = 0;
    uint64_t PassCode = 0, PassStores = 0, PassElided = 0;
    for (size_t Idx : Order) {
      const Item &It = Pool[Idx];
      int64_t Start = nowNs(), CpuStart = threadCpuNs();
      Compiled C;
      {
        Span Op(T, "bench.op");
        C = compileAndTranslate(*It.P, It.Opts, T);
      }
      int64_t CpuNs = threadCpuNs() - CpuStart;
      PassNs += nowNs() - Start;
      PassCpuNs += CpuNs;
      PassCode += C.CP.totalCodeSize();
      if (Recorded) {
        CompileNs[Idx].push_back(double(CpuNs));
        Bytecodes[Idx] = postInlineBytecodes(C.CP);
      }
      if (Traced)
        Counters.add(C.CP, &C.FP);

      Verdict V;
      V.expect(C.Verified, "verify_failed");
      if (C.Verified) {
        Observation Ob = runFast(*It.P, C, It.Entry, It.Args, nullptr);
        Ob.check(V, It.Expected);
        PassStores += Ob.Stats.TotalExecs;
        PassElided += Ob.Stats.ElidedExecs;
        if (Recorded) {
          DriverNs[Idx].push_back(double(Ob.DriverCpuNs));
          Steps[Idx] = Ob.Steps;
        }
      }
      if (Traced)
        V.expect(sameCompile(C.CP, compileProgram(*It.P, It.Opts)),
                 "trace_mismatch");
      if (Pass >= 0)
        R.record(V);
    }
    if (Pass < 0)
      continue;
    ++Passes;
    if (Traced) {
      ++TracedPasses;
      TracedPassCpuNs.push_back(double(PassCpuNs));
      TracedWallNs += double(PassNs);
      continue;
    }
    UntracedPassCpuNs.push_back(double(PassCpuNs));
    RssMb.push_back(peakRssMb());
    CodeSize = PassCode;
    Stores = PassStores;
    StoresElided = PassElided;
  }

  describeHost(R, O, Rot);
  R.info("repetitions", std::to_string(Passes) + " passes of " +
                            std::to_string(N) + " programs");
  R.info("setup_repetitions", std::to_string(SetUp.Count));
  R.info("latency_samples", std::to_string(N) + " programs x " +
                                std::to_string(UntracedPassCpuNs.size()) +
                                " passes");

  if (!O.Trace) {
    // The pool's rates are the items' totals over the sum of their
    // fastest times; the latency percentiles are over the items.
    std::vector<double> ItemUs(N);
    double CompileS = 0, DriverS = 0, TotalBc = 0, TotalSteps = 0;
    for (size_t I = 0; I != N; ++I) {
      ItemUs[I] = fastest(CompileNs[I]) / 1e3;
      CompileS += ItemUs[I] / 1e6;
      DriverS += fastest(DriverNs[I]) / 1e9;
      TotalBc += double(Bytecodes[I]);
      TotalSteps += double(Steps[I]);
    }
    R.metric("setup_s", SetUp.MedianS, "s");
    R.metric("completed_frac", R.completedFrac(), "fraction");
    R.metric("peak_rss_mb", median(RssMb), "MB");
    R.metric("compile_bytecodes_per_s", TotalBc / CompileS, "1/s");
    R.metric("code_size_bytes", double(CodeSize), "bytes");
    R.metric("run_steps_per_s", TotalSteps / DriverS, "1/s");
    R.metric("barrier_elided_pct",
             Stores ? 100.0 * double(StoresElided) / double(Stores) : 0.0,
             "%");
    R.metric("requests_per_s", double(N) / CompileS, "1/s");
    R.metric("request_p99_us", percentile(ItemUs, 99), "us");
    R.metric("request_p999_us", percentile(ItemUs, 99.9), "us");
    return R;
  }

  reportCompileLayers(R, Tr, Counters, TracedPasses);
  R.metric("trace.attributed_pct",
           TracedWallNs > 0 ? 100.0 * Tr.attributedNs() / TracedWallNs : 0.0,
           "%");
  R.metric("trace_overhead_pct",
           100.0 *
               (median(TracedPassCpuNs) / median(UntracedPassCpuNs) - 1.0),
           "%");
  if (!O.TracePath.empty() && !Tr.writeChrome(O.TracePath, R.Info))
    R.info("trace_file_error", O.TracePath);
  return R;
}
