//===- e2ebench/src/Execute.h - One checked program run --------*- C++ -*-===//
///
/// \file
/// Runs a compiled program once under the deterministic concurrent-SATB
/// schedule (runWithConcurrentSatb) and captures what the correctness
/// check compares: status, trap, result, allocation count, the marking
/// oracle and the justification counters. The traced variant wraps the
/// engine so each step() and collectRoots() call is a span; GC time is
/// the remainder of the runWithConcurrentSatb call.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_EXECUTE_H
#define E2EBENCH_EXECUTE_H

#include "Harness.h"
#include "TracedCompile.h"

#include "interp/FastInterp.h"

namespace e2e {

struct Observation {
  satb::RunStatus Status = satb::RunStatus::NotStarted;
  satb::TrapKind Trap = satb::TrapKind::None;
  int64_t Result = 0;
  uint64_t Allocs = 0;
  uint64_t Steps = 0;
  uint64_t Marked = 0;
  uint64_t Swept = 0;
  uint64_t SatbLogged = 0;
  bool OracleHolds = false;
  satb::BarrierStats::Summary Stats;
  /// Wall and thread CPU time of the run: heap, engine and
  /// runWithConcurrentSatb call.
  int64_t Ns = 0;
  int64_t CpuNs = 0;
  /// Thread CPU time of the runWithConcurrentSatb call alone: execution,
  /// not set-up.
  int64_t DriverCpuNs = 0;

  /// The checks every run must pass against \p Expected: the same
  /// outcome as the reference engine, an intact snapshot, and no
  /// unjustified elision.
  void check(Verdict &V, const Observation &Expected) const {
    V.expect(Status == Expected.Status && Trap == Expected.Trap,
             "wrong_status");
    V.expect(Result == Expected.Result, "wrong_result");
    V.expect(Allocs == Expected.Allocs, "wrong_alloc_count");
    V.expect(OracleHolds, "marking_oracle");
    V.expect(Stats.Violations == 0, "elision_violation");
    V.expect(Stats.RemSetViolations == 0, "remset_violation");
  }
};

/// Forwards the engine interface runWithConcurrentSatb uses, one span per
/// call.
class TracedEngine {
public:
  TracedEngine(satb::FastInterp &I, Tracer &T) : I(I), T(T) {}
  void start(satb::MethodId Entry, const std::vector<int64_t> &Args) {
    Span S(&T, "interp");
    I.start(Entry, Args);
  }
  satb::RunStatus step(uint64_t MaxSteps) {
    Span S(&T, "interp");
    return I.step(MaxSteps);
  }
  std::vector<satb::ObjRef> collectRoots() const {
    Span S(&T, "gc.roots");
    return I.collectRoots();
  }
  satb::RunStatus status() const { return I.status(); }
  satb::TrapKind trap() const { return I.trap(); }

private:
  satb::FastInterp &I;
  Tracer &T;
};

inline satb::ConcurrentRunConfig checkedRunConfig() {
  satb::ConcurrentRunConfig Cfg;
  Cfg.WarmupSteps = 1000;
  Cfg.StepLimit = 200'000'000;
  return Cfg;
}

/// One fast-engine run of \p C; spans when \p T is set.
inline Observation runFast(const satb::Program &P, const Compiled &C,
                           satb::MethodId Entry,
                           const std::vector<int64_t> &Args, Tracer *T) {
  using namespace satb;
  Observation O;
  int64_t Start = nowNs(), CpuStart = threadCpuNs();
  std::unique_ptr<Heap> H;
  {
    Span S(T, "heap.init");
    H = std::make_unique<Heap>(P);
  }
  std::unique_ptr<FastInterp> I;
  {
    Span S(T, "interp.init");
    I = std::make_unique<FastInterp>(C.FP, C.CP, *H);
  }
  SatbMarker M(*H);
  I->attachSatb(&M);
  ConcurrentRunResult R;
  int64_t DriverStart = threadCpuNs();
  if (T) {
    TracedEngine E(*I, *T);
    Span S(T, "gc.cycle");
    R = runWithConcurrentSatb(E, M, *H, Entry, Args, checkedRunConfig());
  } else {
    R = runWithConcurrentSatb(*I, M, *H, Entry, Args, checkedRunConfig());
  }
  int64_t End = threadCpuNs();
  O.CpuNs = End - CpuStart;
  O.DriverCpuNs = End - DriverStart;
  O.Ns = nowNs() - Start;
  O.Status = R.Status;
  O.Trap = R.Trap;
  O.Result = I->result().Int;
  O.Allocs = H->numAllocated();
  O.Steps = I->stepsExecuted();
  O.Marked = R.Marked;
  O.Swept = R.Swept;
  O.SatbLogged = M.stats().LoggedPreValues;
  O.OracleHolds = R.OracleHolds;
  O.Stats = I->stats().summarize();
  return O;
}

/// The reference engine (an independent implementation) on \p CP under
/// the same schedule; the expected values every fast run is checked
/// against.
inline Observation runReference(const satb::Program &P,
                                 const satb::CompiledProgram &CP,
                                 satb::MethodId Entry,
                                 const std::vector<int64_t> &Args) {
  using namespace satb;
  Observation O;
  Heap H(P);
  Interpreter I(P, CP, H);
  SatbMarker M(H);
  I.attachSatb(&M);
  ConcurrentRunResult R =
      runWithConcurrentSatb(I, M, H, Entry, Args, checkedRunConfig());
  O.Status = R.Status;
  O.Trap = R.Trap;
  O.Result = I.result().Int;
  O.Allocs = H.numAllocated();
  O.Steps = I.stepsExecuted();
  O.Marked = R.Marked;
  O.Swept = R.Swept;
  O.SatbLogged = M.stats().LoggedPreValues;
  O.OracleHolds = R.OracleHolds;
  O.Stats = I.stats().summarize();
  return O;
}

} // namespace e2e

#endif // E2EBENCH_EXECUTE_H
