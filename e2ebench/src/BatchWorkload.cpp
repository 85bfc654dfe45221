//===- e2ebench/src/BatchWorkload.cpp - The `batch` workload --------------===//
///
/// \file
/// The paper's Table 2 setting: the six Table 1 programs (jess, db,
/// javac, mtrt, jack, jbb), compiled during set-up under the SATB barrier,
/// then run over and over on the fast engine, each run with one
/// concurrent marking cycle on the deterministic runWithConcurrentSatb
/// schedule. Dispatch and barriers carry the time; GC is one short cycle
/// per run and compiling costs only set-up time.
///
/// Each program runs at Sizes transaction counts, from half to 1.4 times
/// its scale; a (program, count) pair is an item. One repetition runs
/// every item RunsPerItem times, program by program in a seeded order;
/// the vCPU rotates per repetition. An item's time is its fastest over
/// the run (see fastest()), and the latency percentiles are over the
/// items. Every run is checked against the reference engine's run of the
/// same compiled program (same schedule, so the same result, trap,
/// allocation count, steps and marking), outside the timed region.
///
//===----------------------------------------------------------------------===//

#include "Execute.h"

#include "workloads/Workload.h"

#include <algorithm>
#include <random>

using namespace satb;
using namespace e2e;

namespace {

/// Transaction counts at scale, in the paper's row order, sized so one
/// run takes 0.1-0.3 ms on the host the benchmark was built on: long
/// enough that dispatch outweighs heap and engine construction.
constexpr int64_t Scales[] = {240, 480, 160, 240, 400, 480};
constexpr int Sizes = 8;
constexpr int RunsPerItem = 5;

struct Prog {
  Workload W;
  Compiled C;
  /// A traced set-up's compile gave compileProgram's result.
  bool TraceMatches = true;
};

struct Item {
  size_t Prog;
  std::vector<int64_t> Args;
  Observation Expected;
};

CompilerOptions compileOptions() {
  CompilerOptions Opts;
  Opts.CompileThreads = 1;
  Opts.Interp = InterpMode::Fast;
  return Opts;
}

void setUp(uint64_t Seed, Tracer *T, CompileCounters *Counters,
           std::vector<Prog> &Progs, std::vector<Item> &Items) {
  std::mt19937_64 Rng(Seed);
  const CompilerOptions Opts = compileOptions();
  Progs.clear();
  Items.clear();
  std::vector<Workload> Ws = allWorkloads();
  for (size_t I = 0; I != Ws.size(); ++I) {
    Prog Pr;
    Pr.W = Ws[I];
    Pr.C = compileAndTranslate(*Pr.W.P, Opts, T);
    if (T)
      Pr.TraceMatches = sameCompile(Pr.C.CP, compileProgram(*Pr.W.P, Opts));
    if (Counters)
      Counters->add(Pr.C.CP, &Pr.C.FP);
    for (int K = 0; K != Sizes; ++K) {
      // The seed moves each count by at most 2%: different inputs, the
      // same amount of work.
      int64_t Count = Scales[I] * (Sizes + 2 * K) / (2 * Sizes);
      Item It{I, {Count + static_cast<int64_t>(Rng() % (Count / 50 + 1))}, {}};
      It.Expected = runReference(*Pr.W.P, Pr.C.CP, Pr.W.Entry, It.Args);
      Items.push_back(std::move(It));
    }
    Progs.push_back(std::move(Pr));
  }
}

} // namespace

Report e2e::runBatch(const Options &O) {
  Report R;
  CpuRotation Rot(O.Seed);
  std::vector<Prog> Progs;
  std::vector<Item> Items;
  Tracer SetUpTr;
  CompileCounters SetUpCounters;
  SetUpTime SetUp = timeSetUps(
      O, Rot, [&] { setUp(O.Seed, nullptr, nullptr, Progs, Items); });
  if (O.Trace)
    setUp(O.Seed, &SetUpTr, &SetUpCounters, Progs, Items);
  if (O.CorruptExpected)
    for (Item &It : Items)
      ++It.Expected.Result;

  std::vector<size_t> Order(Progs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::mt19937_64 OrderRng(O.Seed ^ 0x9e3779b97f4a7c15ull);

  // Over the untraced runs: per item, the run's CPU time and that of its
  // runWithConcurrentSatb call; per program, over the untraced repetitions, the CPU time of
  // compiling it again as set-up does.
  std::vector<std::vector<double>> RunNs(Items.size()),
      DriverNs(Items.size()), CompileNs(Progs.size());
  std::vector<double> UntracedRepCpuNs, TracedRepCpuNs, RssMb;
  double TracedWallNs = 0;
  uint64_t Stores = 0, Elided = 0, Runs = 0;
  Tracer Tr;
  struct {
    uint64_t Steps = 0, Kept = 0, Elided = 0, Logged = 0, Allocs = 0,
             Marked = 0, Swept = 0, Violations = 0;
  } L;
  int Reps = 0, TracedReps = 0;

  int64_t MeasureStart = 0;
  for (int Rep = -1;; ++Rep) {
    if (Rep == 0)
      MeasureStart = nowNs();
    else if (Rep > 0 && nowNs() - MeasureStart >= int64_t(O.Seconds * 1e9))
      break;
    const bool Traced = O.Trace && Rep >= 0 && tracedUnit(Rep, Rot);
    Tracer *T = Traced ? &Tr : nullptr;
    std::shuffle(Order.begin(), Order.end(), OrderRng);
    Rot.next();
    resetPeakRss();
    int64_t RepNs = 0, RepCpuNs = 0;
    for (size_t P : Order) {
      const Prog &Pr = Progs[P];
      for (size_t Idx = P * Sizes; Idx != (P + 1) * Sizes; ++Idx) {
        const Item &It = Items[Idx];
        for (int K = 0; K != RunsPerItem; ++K) {
          Observation Ob;
          {
            Span Op(T, "bench.op");
            Ob = runFast(*Pr.W.P, Pr.C, Pr.W.Entry, It.Args, T);
          }
          Verdict V;
          Ob.check(V, It.Expected);
          V.expect(Ob.Steps == It.Expected.Steps, "wrong_step_count");
          V.expect(Ob.Marked == It.Expected.Marked &&
                       Ob.Swept == It.Expected.Swept,
                   "wrong_marking");
          V.expect(Pr.TraceMatches, "trace_mismatch");
          if (Rep < 0)
            continue;
          R.record(V);
          RepNs += Ob.Ns;
          RepCpuNs += Ob.CpuNs;
          if (Traced) {
            L.Steps += Ob.Steps;
            L.Kept += Ob.Stats.TotalExecs - Ob.Stats.ElidedExecs;
            L.Elided += Ob.Stats.ElidedExecs;
            L.Logged += Ob.SatbLogged;
            L.Allocs += Ob.Allocs;
            L.Marked += Ob.Marked;
            L.Swept += Ob.Swept;
            L.Violations += Ob.Stats.Violations;
          } else {
            RunNs[Idx].push_back(double(Ob.CpuNs));
            DriverNs[Idx].push_back(double(Ob.DriverCpuNs));
            Stores += Ob.Stats.TotalExecs;
            Elided += Ob.Stats.ElidedExecs;
            ++Runs;
          }
        }
      }
    }
    if (Rep < 0)
      continue;
    ++Reps;
    if (Traced) {
      ++TracedReps;
      TracedRepCpuNs.push_back(double(RepCpuNs));
      TracedWallNs += double(RepNs);
    } else {
      UntracedRepCpuNs.push_back(double(RepCpuNs));
      RssMb.push_back(peakRssMb());
      for (size_t P = 0; P != Progs.size(); ++P) {
        int64_t Start = threadCpuNs();
        compileAndTranslate(*Progs[P].W.P, compileOptions(), nullptr);
        CompileNs[P].push_back(double(threadCpuNs() - Start));
      }
    }
  }

  describeHost(R, O, Rot);
  R.info("repetitions", std::to_string(Reps) + " x 6 programs x " +
                            std::to_string(Sizes) + " sizes x " +
                            std::to_string(RunsPerItem) + " runs");
  R.info("setup_repetitions", std::to_string(SetUp.Count));
  R.info("latency_samples", std::to_string(Items.size()) + " items x " +
                                std::to_string(Runs / Items.size()) +
                                " runs");

  if (!O.Trace) {
    // Each program's steps per second over its items' fastest
    // runWithConcurrentSatb calls, geomean over the programs; the compile rate, like the
    // compile workload's, over each program's fastest compile.
    std::vector<double> ItemUs(Items.size()), ProgRates;
    double ItemsS = 0, CompileS = 0, Bytecodes = 0;
    uint64_t CodeSize = 0;
    for (size_t I = 0; I != Items.size(); ++I) {
      ItemUs[I] = fastest(RunNs[I]) / 1e3;
      ItemsS += ItemUs[I] / 1e6;
    }
    for (size_t P = 0; P != Progs.size(); ++P) {
      double Steps = 0, DriverS = 0;
      for (size_t I = P * Sizes; I != (P + 1) * Sizes; ++I) {
        Steps += double(Items[I].Expected.Steps);
        DriverS += fastest(DriverNs[I]) / 1e9;
      }
      ProgRates.push_back(Steps / DriverS);
      CompileS += fastest(CompileNs[P]) / 1e9;
      Bytecodes += double(postInlineBytecodes(Progs[P].C.CP));
      CodeSize += Progs[P].C.CP.totalCodeSize();
    }
    R.metric("setup_s", SetUp.MedianS, "s");
    R.metric("completed_frac", R.completedFrac(), "fraction");
    R.metric("peak_rss_mb", median(RssMb), "MB");
    R.metric("compile_bytecodes_per_s", Bytecodes / CompileS, "1/s");
    R.metric("code_size_bytes", double(CodeSize), "bytes");
    R.metric("run_steps_per_s", geomean(ProgRates), "1/s");
    R.metric("barrier_elided_pct",
             Stores ? 100.0 * double(Elided) / double(Stores) : 0.0, "%");
    R.metric("requests_per_s", double(Items.size()) / ItemsS, "1/s");
    R.metric("request_p99_us", percentile(ItemUs, 99), "us");
    R.metric("request_p999_us", percentile(ItemUs, 99.9), "us");
    return R;
  }

  reportCompileLayers(R, SetUpTr, SetUpCounters, 1);
  double U = TracedReps > 0 ? TracedReps : 1;
  R.metric("interp.self_ms", Tr.selfNs("interp") / 1e6 / U, "ms");
  R.metric("interp.init_self_ms", Tr.selfNs("interp.init") / 1e6 / U, "ms");
  R.metric("interp.steps", L.Steps / U, "count");
  R.metric("interp.ns_per_step",
           L.Steps ? Tr.selfNs("interp") / double(L.Steps) : 0.0, "ns");
  R.metric("interp.barriers_kept", L.Kept / U, "count");
  R.metric("interp.barriers_elided", L.Elided / U, "count");
  R.metric("interp.satb_logged", L.Logged / U, "count");
  R.metric("heap.init_self_ms", Tr.selfNs("heap.init") / 1e6 / U, "ms");
  R.metric("heap.objects_allocated", L.Allocs / U, "count");
  R.metric("gc.roots_self_ms", Tr.selfNs("gc.roots") / 1e6 / U, "ms");
  R.metric("gc.cycle_self_ms", Tr.selfNs("gc.cycle") / 1e6 / U, "ms");
  R.metric("gc.marked", L.Marked / U, "count");
  R.metric("gc.swept", L.Swept / U, "count");
  R.metric("interp.violations", double(L.Violations), "count");
  R.metric("trace.attributed_pct",
           TracedWallNs > 0 ? 100.0 * Tr.attributedNs() / TracedWallNs : 0.0,
           "%");
  R.metric("trace_overhead_pct",
           100.0 * (median(TracedRepCpuNs) / median(UntracedRepCpuNs) - 1.0),
           "%");
  // One trace file: the measured phase's spans; the set-up compile's
  // layers are in the per-layer metrics.
  if (!O.TracePath.empty() && !Tr.writeChrome(O.TracePath, R.Info))
    R.info("trace_file_error", O.TracePath);
  return R;
}
