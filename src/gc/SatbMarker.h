//===- gc/SatbMarker.h - Snapshot-at-the-beginning marking -----*- C++ -*-===//
///
/// \file
/// A snapshot-at-the-beginning (Yuasa-style) concurrent marker in the
/// style of the Garbage-First collector the paper used [10]. The collector
/// "marks the objects reachable in a logical snapshot of the object graph
/// taken at the start of marking"; the mutator preserves the snapshot by
/// logging the pre-write value of every reference store into thread-local
/// SATB buffers, which the marker drains concurrently. Objects allocated
/// during marking are born marked and never examined.
///
/// The marker is step-driven so a deterministic scheduler can interleave
/// it with the interpreter at instruction granularity (the property tests
/// exercise adversarial interleavings); see interp/Interpreter.h.
///
/// The SATB guarantee — everything reachable in the start-of-marking
/// snapshot is marked at the end — is the correctness oracle for barrier
/// elision: an elided barrier is sound exactly when its store can never
/// unlink part of the snapshot, which pre-null stores cannot.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_GC_SATBMARKER_H
#define SATB_GC_SATBMARKER_H

#include "gc/MarkingCore.h"

#include <map>

namespace satb {

struct SatbStats : MarkStats {
  uint64_t LoggedPreValues = 0;   ///< barrier slow-path executions
  uint64_t BuffersFlushed = 0;    ///< completed buffers handed to marker
  uint64_t BuffersDiscarded = 0;  ///< always-log buffers outside marking
  // Section 4.3 array-rearrangement protocol counters.
  uint64_t RearrangesEntered = 0;
  uint64_t RearrangesClean = 0;    ///< exits with no marker overlap
  uint64_t RearrangeRetraces = 0;  ///< arrays queued for retracing
};

/// The SATB marker: the marking core (gc/MarkingCore.h) refilled from
/// completed SATB buffers. markStep, sweep and the parallel-marking and
/// trace-count knobs are the core's.
class SatbMarker : public MarkingCore {
public:
  explicit SatbMarker(Heap &H, size_t BufferCapacity = 256)
      : MarkingCore(H), BufferCapacity(BufferCapacity) {}

  /// Starts a marking cycle: snapshots the roots (mutator stacks passed in;
  /// statics read from the heap), arms allocate-black, and activates the
  /// mutator barrier.
  void beginMarking(const std::vector<ObjRef> &MutatorRoots);

  /// Mutator barrier slow path: record the non-null pre-value of an
  /// overwritten reference slot. Works even when marking is inactive (the
  /// Table 2 "always-log" mode); such buffers are recycled unread.
  /// Single-mutator entry point — multi-mutator engines buffer in their
  /// MutatorContext and hand over whole buffers via flushBuffer.
  void logPreValue(ObjRef Pre);

  /// Thread-safe hand-over of a completed per-thread SATB buffer. The
  /// buffer's pre-values count toward LoggedPreValues here (not at log
  /// time) so the shard totals need no further aggregation. Buffers
  /// arriving outside a cycle are discarded unread (always-log mode).
  void flushBuffer(std::vector<ObjRef> &&Buf);

  /// The final termination pause: flush the mutator's current buffer,
  /// drain everything to completion, deactivate the barrier. \returns the
  /// work done inside the pause (the pause-time proxy of bench S1).
  size_t finishMarking();

  // --- Section 4.3 array-rearrangement protocol ---------------------------
  //
  // A rearrangement loop (see analysis/Rearrange.h) brackets itself with
  // enterRearrange / exitRearrange; while an array is in the active set,
  // its permutation stores may skip the SATB log (the one genuinely
  // overwritten value was logged at enter). exitRearrange compares the
  // array's tracing state against the state at enter: any possible marker
  // overlap queues the array on the retrace list, which finishMarking
  // rescans conservatively. Cycles that end with rearrangements still
  // active retrace those arrays too.

  /// \returns true if the cycle is active and the array joined the active
  /// set (the caller must have logged the dropped element first).
  bool enterRearrange(ObjRef Arr);
  /// \returns true if a protocol store on \p Arr may skip logging.
  bool inActiveRearrange(ObjRef Arr) const {
    if (!isActive())
      return false;
    std::lock_guard<std::mutex> Lock(RearrangeMutex);
    return ActiveRearranges.count(Arr) != 0;
  }
  void exitRearrange(ObjRef Arr);

  const SatbStats &stats() const { return Stats; }

private:
  MarkStats &counters() override { return Stats; }
  /// Refill: one completed buffer's pre-values join the grey set.
  bool refill(Drainer &D) override;
  bool refillPending() override {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    return !CompletedBuffers.empty();
  }
  void flushCurrentBuffer();

  size_t BufferCapacity;
  /// Single-mutator log (unused by multi-mutator contexts).
  std::vector<ObjRef> CurrentBuffer;
  /// Shared hand-over queue: mutators push via flushBuffer, the marker
  /// pops in markStep/finishMarking. QueueMutex also covers the buffer
  /// counters so flushBuffer's bookkeeping stays exact under contention.
  std::mutex QueueMutex;
  std::vector<std::vector<ObjRef>> CompletedBuffers;
  /// Rearrangement protocol state (shared when several mutators bracket
  /// arrays; the protocol itself is only sound single-mutator, see
  /// DESIGN.md, but the bookkeeping must not race).
  mutable std::mutex RearrangeMutex;
  std::map<ObjRef, TraceState> ActiveRearranges;
  std::vector<ObjRef> RetraceList;
  SatbStats Stats;
};

} // namespace satb

#endif // SATB_GC_SATBMARKER_H
