//===- gc/MarkingCore.h - The tracing engine both markers share -*- C++ -*-===//
///
/// \file
/// The marking core of the two concurrent collectors: the grey stack,
/// object scanning, the budgeted drain (serial, or parallel over sharded
/// grey stacks), mark-once trace counters and the sweep. SatbMarker and
/// IncrementalUpdateMarker derive from it and differ only where the paper
/// says they do:
///
///  - the barrier (SATB pre-value logging vs card marking), which feeds
///    the marker's own structures and never touches the core;
///  - the refill hook: where a drainer finds more grey work once its stack
///    and the hand-off queue run dry (one SATB buffer, or one dirty card);
///  - termination: the pending-work check idle workers consult
///    (queued SATB buffers, or any dirty card), and each marker's own
///    finishMarking (drain to empty, or root rescan plus clean-table
///    passes).
///
/// Parallel marking follows Flood et al.'s design point (per-worker grey
/// stacks with load balancing, see PAPERS.md). Each mark worker keeps a
/// private grey stack and claims objects through the heap's atomic mark
/// word (`Heap::tryClaimMark`), so an object is traced exactly once no
/// matter which worker reaches it first. Load balancing uses a *locked
/// segment hand-off queue* rather than a Chase-Lev deque: workers that
/// grow a deep local stack offload a fixed-size segment under a mutex, and
/// idle workers pop whole segments. Hand-off happens once per
/// `GreySegmentTarget` objects, so the mutex is off the per-object path,
/// and every access stays ThreadSanitizer-annotatable without the weaker
/// orderings a work-stealing deque needs (DESIGN.md "Parallel marking").
///
/// Termination uses a global active-worker count with a re-offer check: a
/// worker that runs dry decrements the count and spins; it re-increments
/// (re-offers itself) whenever shared work reappears, and exits only after
/// observing the count at zero *and then* finding the shared work still
/// empty. Reading the count before the work re-check closes the classic
/// race where worker A hands off a segment and goes idle while worker B
/// checked the queue just before the hand-off.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_GC_MARKINGCORE_H
#define SATB_GC_MARKINGCORE_H

#include "heap/Heap.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace satb {

class ThreadPool;

/// A batch of grey references handed between mark workers. Also the type
/// of a drainer's private stack, so hand-off is a vector move.
using GreySegment = std::vector<ObjRef>;

/// Hand-off granularity: a worker offloads this many objects at a time
/// once its local stack exceeds twice the target, and idle workers pick
/// whole segments up. Large enough that the queue mutex is cold, small
/// enough that a skewed object graph still spreads across workers.
constexpr size_t GreySegmentTarget = 128;

/// The locked segment hand-off queue (the load-balancing channel between
/// mark workers). All operations are under one mutex; see the file
/// comment for why this beats a lock-free deque here.
class GreyQueue {
public:
  void push(GreySegment &&Seg) {
    if (Seg.empty())
      return;
    std::lock_guard<std::mutex> Lock(M);
    Segments.push_back(std::move(Seg));
  }
  bool tryPop(GreySegment &Out) {
    std::lock_guard<std::mutex> Lock(M);
    if (Segments.empty())
      return false;
    Out = std::move(Segments.back());
    Segments.pop_back();
    return true;
  }
  bool empty() const {
    std::lock_guard<std::mutex> Lock(M);
    return Segments.empty();
  }

private:
  mutable std::mutex M;
  std::vector<GreySegment> Segments;
};

/// Termination detection for one parallel drain: a count of workers that
/// may still produce work. Every worker decrements exactly once (on going
/// idle or on budget exhaustion), so `allIdle` implies every worker has
/// both started and drained — which is what makes the re-offer protocol
/// sound.
class TerminationGate {
public:
  void reset(unsigned Workers) { Active.store(Workers); }
  void goIdle() { Active.fetch_sub(1); }
  void reOffer() { Active.fetch_add(1); }
  bool allIdle() const { return Active.load() == 0; }

private:
  std::atomic<unsigned> Active{0};
};

/// The counters every marker keeps; SatbStats and IncUpdateStats extend
/// them with their barrier's and termination's own.
struct MarkStats {
  uint64_t ConcurrentWork = 0; ///< work units done by markStep
  uint64_t FinalPauseWork = 0; ///< work units done inside the final pause
  uint64_t MarkedObjects = 0;
  uint64_t SweptObjects = 0;
};

class MarkingCore {
public:
  /// Parallel-marking knob. The default (1) is the serial marker: drains
  /// run on the caller's thread and observables are deterministic. With
  /// \p N > 1, markStep and finishMarking drain with N workers over
  /// sharded grey stacks; \p Pool must outlive the marker's cycles and
  /// hold at least N threads (ThreadPool counts the caller, so
  /// ThreadPool(N) is the natural pool). Call between cycles only.
  void setMarkThreads(unsigned N, ThreadPool *Pool = nullptr);
  unsigned markThreads() const { return MarkThreads; }

  /// Debug instrumentation for the mark-once property tests: allocates a
  /// per-ObjRef trace counter (capacity \p CapacityRefs) that every
  /// object scan increments. Off by default — the counters exist so tests
  /// can assert each claimed object is traced exactly once under M > 1.
  void enableTraceCounts(size_t CapacityRefs);
  uint32_t traceCount(ObjRef R) const {
    return TraceCounts && R < TraceCountCap
               ? TraceCounts[R].load(std::memory_order_relaxed)
               : 0;
  }

  /// Relaxed: mutators poll this on every barrier slow path. Transitions
  /// happen only at the stop-the-world edges of a cycle, which the
  /// safepoint handshake orders against every mutator's next step.
  bool isActive() const { return Active.load(std::memory_order_relaxed); }

  /// Runs up to \p Budget units of concurrent marking (one unit = one
  /// object greyed or scanned, one refill). \returns true when no work
  /// appears to remain.
  bool markStep(size_t Budget);

  /// Frees unmarked objects; clears marks and tracing states. Call only
  /// after finishMarking. \returns the number of objects freed.
  size_t sweep();

protected:
  /// One drainer of the grey set. The serial drainer (MarkThreads == 1)
  /// persists across steps and tests-and-sets plain mark bits; each
  /// parallel worker gets a fresh one per drain that claims through the
  /// atomic mark word and offloads surplus grey work to the hand-off
  /// queue.
  class Drainer {
  public:
    Drainer(MarkingCore &Core, bool Parallel, unsigned Index)
        : Index(Index), Core(Core), H(Core.H), Parallel(Parallel) {}

    /// Greys \p R if it is a live object nobody has marked yet.
    void grey(ObjRef R) {
      if (R == NullRef || !H.isLive(R))
        return;
      if (Parallel) {
        if (!H.tryClaimMark(R))
          return;
      } else {
        if (H.isMarked(R))
          return;
        H.setMarked(R);
      }
      admit(R);
    }
    /// Greys every referent of \p Obj. Reference arrays take the
    /// word-at-a-time range path: one bitmap fetch_or per touched mark
    /// word, with callback order equal to the slot-by-slot loop's.
    void greySlots(const HeapObject &Obj) {
      const ObjRef *Slots = Obj.refs();
      if (Obj.Kind == ObjectKind::RefArray)
        H.markRangeWords(Slots, Obj.NumRefs, [this](ObjRef V) { admit(V); });
      else
        for (uint32_t I = 0, E = Obj.NumRefs; I != E; ++I)
          grey(loadRefAcquire(&Slots[I]));
    }
    /// Pops and scans one grey object. \returns false on an empty stack.
    bool scanOne() {
      if (Stack.empty())
        return false;
      ObjRef R = Stack.back();
      Stack.pop_back();
      HeapObject &Obj = H.object(R);
      // The tracing state is what SATB's Section 4.3 rearrangement
      // protocol compares at loop exit; sweepUnmarked resets it.
      storeTracingRelaxed(Obj, TraceState::Tracing);
      greySlots(Obj);
      storeTracingRelaxed(Obj, TraceState::Traced);
      Core.bumpTrace(R);
      ++Work;
      return true;
    }

    const unsigned Index; ///< worker index; 0 for the serial drainer
    GreySegment Stack;
    uint64_t Marked = 0;
    uint64_t Work = 0;

  private:
    void admit(ObjRef R) {
      ++Marked;
      ++Work;
      Stack.push_back(R);
      if (Parallel && Stack.size() >= 2 * GreySegmentTarget)
        offload();
    }
    /// Hands the oldest half of a deep stack to the hand-off queue.
    void offload();

    MarkingCore &Core;
    Heap &H;
    const bool Parallel;
  };

  explicit MarkingCore(Heap &H) : H(H), Serial(*this, /*Parallel=*/false, 0) {}
  ~MarkingCore() = default;

  /// The marker's stats, whose shared counters the core maintains.
  virtual MarkStats &counters() = 0;

  /// Refill hook: moves one unit of the marker's pending work (an SATB
  /// buffer, a dirty card) into \p D's grey stack. Called concurrently by
  /// parallel workers. \returns false when there is none.
  virtual bool refill(Drainer &D) = 0;
  /// Whether refill could still find work: the termination check idle
  /// workers and markStep consult.
  virtual bool refillPending() = 0;

  /// Opens a cycle at a stop-the-world point: activates the barrier and
  /// greys \p MutatorRoots and the statics.
  void beginCycle(const std::vector<ObjRef> &MutatorRoots);
  void greyRoots(const std::vector<ObjRef> &MutatorRoots);
  /// Drains to \p Budget units (SIZE_MAX: to completion), on the caller's
  /// thread or over MarkThreads workers. \returns the work done since the
  /// last settle, including what the serial drainer had already staged.
  uint64_t drain(size_t Budget);
  /// Folds the serial drainer's counters into the stats. \returns its
  /// work since the last settle.
  uint64_t settle();
  /// Closes a cycle whose final pause did \p Pause work units.
  size_t endCycle(size_t Pause);

  Heap &H;
  Drainer Serial;

private:
  /// The drain loop every drainer runs: scan to the budget, refill from
  /// the hand-off queue (parallel only) and the marker's hook, and — with
  /// a \p Gate — run the termination protocol when everything looks dry.
  void run(Drainer &D, size_t Budget, TerminationGate *Gate);
  bool greyEmpty() const {
    return Serial.Stack.empty() && (MarkThreads == 1 || Grey.empty());
  }
  void bumpTrace(ObjRef R) {
    if (TraceCounts && R < TraceCountCap)
      TraceCounts[R].fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<bool> Active{false};
  unsigned MarkThreads = 1;
  ThreadPool *MarkPool = nullptr;
  /// Grey work between budgeted parallel drains; always empty when
  /// MarkThreads == 1.
  GreyQueue Grey;
  /// Mark-once debug counters (test instrumentation, normally null).
  std::unique_ptr<std::atomic<uint32_t>[]> TraceCounts;
  size_t TraceCountCap = 0;
};

} // namespace satb

#endif // SATB_GC_MARKINGCORE_H
