//===- interp/Interpreter.h - The mutator ----------------------*- C++ -*-===//
///
/// \file
/// A resumable bytecode interpreter executing CompiledMethods against the
/// Heap. It plays the paper's mutator: at every reference store it
/// consults the compiler's per-site barrier decision, executes (or skips)
/// the SATB / card-marking write barrier, and maintains the Section 4.2
/// instrumentation counters.
///
/// The interpreter is step-driven so marking can be interleaved with
/// mutation at instruction granularity; runWithConcurrentCycle drives a
/// full concurrent cycle on either marker and checks its correctness
/// oracle.
///
/// Integer semantics are JVM int: 32-bit two's-complement wraparound
/// (relevant to the Section 3.6 overflow discussion). Traps (null
/// dereference, bounds, division by zero, negative array size) terminate
/// execution with a TrapKind, modeling Java exceptions in a
/// no-catch-clause world (see footnote 1 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef SATB_INTERP_INTERPRETER_H
#define SATB_INTERP_INTERPRETER_H

#include "gc/IncrementalUpdateMarker.h"
#include "gc/MinorGC.h"
#include "gc/SatbMarker.h"
#include "heap/Heap.h"
#include "interp/BarrierStats.h"
#include "jit/Compiler.h"

#include <algorithm>
#include <type_traits>

namespace satb {

enum class RunStatus : uint8_t { NotStarted, Running, Finished, Trapped };

enum class TrapKind : uint8_t {
  None,
  NullPointer,
  OutOfBounds,
  NegativeArraySize,
  DivisionByZero,
  BadFieldAccess, ///< field access on an object of the wrong class
  StackOverflow,
  StepLimit ///< run() exhausted its step budget
};

const char *trapName(TrapKind K);

/// One operand-stack or local slot. Stores both representations; the
/// verifier guarantees each slot is used consistently, and keeping the
/// reference half accurate (zeroed on integer writes) makes conservative
/// root scanning exact.
struct Slot {
  int64_t Int = 0;
  ObjRef Ref = NullRef;

  static Slot ofInt(int64_t V) { return Slot{V, NullRef}; }
  static Slot ofRef(ObjRef R) { return Slot{0, R}; }
};

class Interpreter {
public:
  Interpreter(const Program &P, const CompiledProgram &CP, Heap &H);

  /// Attach collectors; the barrier flavor comes from the compiled
  /// program's BarrierMode.
  void attachSatb(SatbMarker *M) { Satb = M; }
  void attachIncUpdate(IncrementalUpdateMarker *M) { Inc = M; }
  /// Remembered-set client for BarrierMode::Generational (the marking
  /// component still goes through the attached SatbMarker).
  void attachGen(MinorGC *M) { Gen = M; }

  /// Arms safepoint polling: step() returns (Status still Running) when
  /// \p Flag is set and the next instruction is a branch or call — the
  /// same park points the fast engine's translated Safepoint polls give.
  /// The reference engine stays the single-mutator oracle; this exists so
  /// both engines expose one suspension interface.
  void attachSafepoint(const std::atomic<bool> *Flag) { SafepointReq = Flag; }

  /// Begins execution of \p Entry. \p IntArgs fill the method's (int-only)
  /// parameters; missing args default to 0.
  void start(MethodId Entry, const std::vector<int64_t> &IntArgs = {});

  /// Executes up to \p MaxSteps instructions.
  RunStatus step(uint64_t MaxSteps);

  /// Convenience: start + step to completion (or \p StepLimit).
  RunStatus run(MethodId Entry, const std::vector<int64_t> &IntArgs = {},
                uint64_t StepLimit = 2'000'000'000);

  RunStatus status() const { return Status; }
  TrapKind trap() const { return Trap; }
  /// Value returned by the entry method (zero slot for void).
  Slot result() const { return Result; }
  uint64_t stepsExecuted() const { return Steps; }

  /// Modeled dynamic barrier cost in RISC instructions (Section 4.5's cost
  /// accounting; wall-clock timing is measured by the benches directly).
  uint64_t barrierCostInstrs() const { return BarrierCost; }

  /// Total modeled RISC instructions executed: per-opcode execution counts
  /// weighted by the CodeSizeModel, plus the dynamic barrier cost. A
  /// deterministic machine-level throughput measure (the paper's numbers
  /// reflect compiled code, where this is the ground truth; interpreter
  /// wall time buries the barrier delta in dispatch overhead).
  uint64_t modeledInstrsExecuted() const;

  /// Conservative roots: every non-null reference slot in live frames.
  /// The overload appends into a caller-owned scratch vector (cleared
  /// first) so per-slice root scans in the concurrent drivers do not
  /// allocate.
  void collectRoots(std::vector<ObjRef> &Out) const;
  std::vector<ObjRef> collectRoots() const {
    std::vector<ObjRef> Roots;
    collectRoots(Roots);
    return Roots;
  }

  BarrierStats &stats() { return Stats; }
  const BarrierStats &stats() const { return Stats; }

private:
  struct Frame {
    const CompiledMethod *CM = nullptr;
    uint32_t PC = 0;
    std::vector<Slot> Locals;
    std::vector<Slot> Stack;
  };

  void pushFrame(MethodId Id);
  bool stepOne(); ///< \returns false when execution stopped
  void setTrap(TrapKind K) {
    Trap = K;
    Status = RunStatus::Trapped;
  }

  /// Instruments and executes the write barrier for a reference store.
  /// \p Base is the written object (NullRef for statics), \p Pre the
  /// overwritten value, \p New the stored value.
  void refStoreBarrier(const Frame &F, uint32_t PC, ObjRef Base, ObjRef Pre,
                       ObjRef New);

  /// Range-barrier counterpart for the bulk-store bytecodes: one execution
  /// is one site event covering \p N destination slots. \p Pre points at
  /// the destination slots (read before any store), \p NewVals at the
  /// stored values with stride \p NewStride (0 = one fill value repeated,
  /// 1 = a source range). Mode checks, the remembered-set young tests and
  /// card dirtying are paid once per range; only SATB pre-value logging
  /// stays per non-null slot (the log itself is per-value).
  void rangeStoreBarrier(const Frame &F, uint32_t PC, ObjRef Base,
                         const ObjRef *Pre, size_t N, const ObjRef *NewVals,
                         size_t NewStride);

  const Program &P;
  const CompiledProgram &CP;
  Heap &H;
  SatbMarker *Satb = nullptr;
  IncrementalUpdateMarker *Inc = nullptr;
  MinorGC *Gen = nullptr;
  const std::atomic<bool> *SafepointReq = nullptr;

  std::vector<Frame> Frames;
  RunStatus Status = RunStatus::NotStarted;
  TrapKind Trap = TrapKind::None;
  Slot Result;
  uint64_t Steps = 0;
  uint64_t BarrierCost = 0;
  uint64_t OpcodeCounts[64] = {};
  uint32_t MaxCallDepth = 1024;
  BarrierStats Stats;
};

// --- Concurrent-cycle drivers ---------------------------------------------

struct ConcurrentRunConfig {
  uint64_t WarmupSteps = 1000;   ///< mutator steps before marking starts
  uint64_t MutatorQuantum = 64;  ///< mutator steps per slice
  size_t MarkerQuantum = 16;     ///< marker work units per slice
  uint64_t StepLimit = 200'000'000;
};

struct ConcurrentRunResult {
  RunStatus Status = RunStatus::NotStarted;
  TrapKind Trap = TrapKind::None;
  /// The marker's oracle: SATB — everything reachable in the
  /// start-of-marking snapshot is marked; incremental update — everything
  /// reachable at the final pause is marked.
  bool OracleHolds = false;
  uint64_t OracleLive = 0;   ///< objects the oracle requires marked
  uint64_t Marked = 0;
  size_t FinalPauseWork = 0;
  size_t Swept = 0;
};

/// One marking cycle as every cycle driver runs it, over either marker:
/// begin(roots), step(budget), finish(final roots) and sweep. The adapter
/// owns the marker's correctness oracle, accumulated across the cycles of
/// a run: SATB requires everything reachable in the start-of-marking
/// snapshot to be marked at the final pause; incremental update requires
/// everything reachable at the final pause.
template <typename MarkerT> class MarkingCycle {
  static constexpr bool IsSatb = std::is_same_v<MarkerT, SatbMarker>;

public:
  MarkingCycle(MarkerT &M, Heap &H) : M(M), H(H) {}

  /// Starts a cycle at a stop-the-world point; SATB takes its snapshot
  /// oracle here.
  void begin(const std::vector<ObjRef> &Roots) {
    if constexpr (IsSatb)
      Snapshot = computeReachable(H, Roots);
    M.beginMarking(Roots);
  }
  bool step(size_t Budget) { return M.markStep(Budget); }
  /// The final pause: terminates marking and evaluates the oracle.
  /// \p FinalRoots returns the roots at the pause; only incremental update
  /// calls it. \returns the pause work.
  template <typename RootsFn> size_t finish(RootsFn &&FinalRoots) {
    if constexpr (IsSatb) {
      size_t Pause = M.finishMarking();
      check(Snapshot);
      return Pause;
    } else {
      std::vector<ObjRef> Roots = FinalRoots();
      size_t Pause = M.finishMarking(Roots);
      check(computeReachable(H, Roots));
      return Pause;
    }
  }
  size_t sweep() { return M.sweep(); }
  MarkerT &marker() const { return M; }

  bool OracleHolds = true;
  uint64_t OracleLive = 0; ///< objects the oracle required marked
  /// SATB: the last cycle's start-of-marking reachability bitmap.
  std::vector<bool> Snapshot;

private:
  void check(const std::vector<bool> &MustBeMarked) {
    for (ObjRef Ref = 1; Ref < MustBeMarked.size(); ++Ref) {
      if (!MustBeMarked[Ref])
        continue;
      ++OracleLive;
      if (!(H.isLive(Ref) && H.isMarked(Ref)))
        OracleHolds = false;
    }
  }

  MarkerT &M;
  Heap &H;
};

/// The single-mutator cycle skeleton: run \p Entry for WarmupSteps, begin
/// a cycle at the engine's roots, run \p Concurrent (the interleaving of
/// mutator and marker, which charges mutator steps to its \p Remaining
/// argument), then the final pause with the oracle and sweep, and let the
/// mutator finish with the barriers off.
template <typename Engine, typename MarkerT, typename ConcurrentFn>
ConcurrentRunResult runSingleMutatorCycle(Engine &I, MarkerT &M, Heap &H,
                                          MethodId Entry,
                                          const std::vector<int64_t> &IntArgs,
                                          const ConcurrentRunConfig &Cfg,
                                          ConcurrentFn &&Concurrent) {
  ConcurrentRunResult R;
  I.start(Entry, IntArgs);
  I.step(Cfg.WarmupSteps);
  MarkingCycle<MarkerT> Cycle(M, H);
  Cycle.begin(I.collectRoots());
  uint64_t Remaining = Cfg.StepLimit;
  Concurrent(Cycle, Remaining);
  R.FinalPauseWork = Cycle.finish([&] { return I.collectRoots(); });
  R.OracleHolds = Cycle.OracleHolds;
  R.OracleLive = Cycle.OracleLive;
  R.Marked = M.stats().MarkedObjects;
  R.Swept = Cycle.sweep();
  if (I.status() == RunStatus::Running && Remaining > 0)
    I.step(Remaining);
  R.Status = I.status();
  R.Trap = I.trap();
  return R;
}

/// Runs \p Entry with a marking cycle of \p M (SatbMarker or
/// IncrementalUpdateMarker) interleaved deterministically after
/// WarmupSteps: MutatorQuantum engine steps, then MarkerQuantum marker
/// work, until the marker runs dry. Templated over the engine so the
/// reference Interpreter and the FastInterp run the same schedule (the
/// equivalence test drives both).
template <typename Engine, typename MarkerT>
ConcurrentRunResult
runWithConcurrentCycle(Engine &I, MarkerT &M, Heap &H, MethodId Entry,
                       const std::vector<int64_t> &IntArgs,
                       const ConcurrentRunConfig &Cfg) {
  return runSingleMutatorCycle(
      I, M, H, Entry, IntArgs, Cfg,
      [&](MarkingCycle<MarkerT> &Cycle, uint64_t &Remaining) {
        bool MarkerDone = false;
        while (I.status() == RunStatus::Running && !MarkerDone &&
               Remaining > 0) {
          uint64_t Quantum = std::min(Cfg.MutatorQuantum, Remaining);
          I.step(Quantum);
          Remaining -= Quantum;
          MarkerDone = Cycle.step(Cfg.MarkerQuantum);
        }
      });
}

/// runWithConcurrentCycle on the SATB marker.
template <typename Engine>
ConcurrentRunResult
runWithConcurrentSatb(Engine &I, SatbMarker &M, Heap &H, MethodId Entry,
                      const std::vector<int64_t> &IntArgs,
                      const ConcurrentRunConfig &Cfg) {
  return runWithConcurrentCycle(I, M, H, Entry, IntArgs, Cfg);
}

} // namespace satb

#endif // SATB_INTERP_INTERPRETER_H
