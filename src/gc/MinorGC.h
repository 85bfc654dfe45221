//===- gc/MinorGC.h - Stop-the-world minor collection ----------*- C++ -*-===//
///
/// \file
/// The generational layer's collector: a stop-the-world minor collection
/// over the heap's nursery (see heap/Heap.h, "Generational layer"). Young
/// survivors are *promoted* — their block is copied into old space and the
/// object-table entry republished, so the ObjRef is stable and no
/// interior-reference fixup exists anywhere. Dead young objects are freed
/// and the nursery buffer recycled wholesale.
///
/// Reachability into the nursery comes from three sources:
///   1. mutator roots (operand stacks / locals, passed in by the driver),
///   2. static reference fields (read from the heap),
///   3. old-to-young heap edges, summarized by the *remembered set*: a
///      card table over ObjRefs (gc/IncrementalUpdateMarker.h's CardTable,
///      CardShift objects per card) dirtied by the generational write
///      barrier whenever an old object gains a young referent. A minor
///      collection scans only the dirty cards' old objects instead of the
///      whole old generation.
///
/// The remembered set is an over-approximation (a dirty card covers
/// CardShift-many objects; a recorded edge may since have been
/// overwritten), never an under-approximation — the generational barrier
/// dirties before the mutator can reach a GC point. Because every
/// surviving young object is promoted (no survivor space, no age bits),
/// a completed minor collection leaves zero young objects, so the whole
/// remembered set is cleared: any stale card can only describe an
/// old-to-old edge.
///
/// Interaction with concurrent marking: a minor collection that runs while
/// a SATB or incremental-update cycle is active promotes *every* young
/// object wholesale and frees nothing. Freeing would break the SATB
/// snapshot oracle (a snapshot-reachable young object must survive the
/// cycle), and promotion alone is invisible to the marker — the ObjRef is
/// the identity, and mark/live bits are ObjRef-indexed. Wholesale
/// promotion is also the fallback whenever no generational barrier
/// maintains the remembered set (RemSetValid == false), e.g. running the
/// nursery under plain SATB or card-marking barrier modes.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_GC_MINORGC_H
#define SATB_GC_MINORGC_H

#include "gc/IncrementalUpdateMarker.h"
#include "heap/Heap.h"

namespace satb {

struct MinorGCStats {
  uint64_t Collections = 0;
  uint64_t WholesalePromotions = 0; ///< collections that promoted everything
  uint64_t PromotedObjects = 0;
  uint64_t PromotedBytes = 0;
  uint64_t FreedYoung = 0;
  uint64_t CardsDirtied = 0;        ///< remembered-set barrier executions
  uint64_t RemSetCardsScanned = 0;  ///< dirty cards processed
  uint64_t RemSetOldScanned = 0;    ///< old objects examined on dirty cards
  uint64_t RootYoung = 0;           ///< young refs found in roots/statics
  uint64_t PauseWork = 0;           ///< objects + slots touched in pauses
};

class MinorGC {
public:
  explicit MinorGC(Heap &H) : H(H) {}

  /// Attach the concurrent marker running the major cycles (either
  /// collector) so collect() can detect an active cycle and switch to
  /// wholesale promotion.
  void attachMarker(const MarkingCore *M) { Marker = M; }

  /// Declares whether a generational barrier is maintaining the
  /// remembered set. False (the default) forces wholesale promotion —
  /// sound under any barrier mode, just less precise.
  void setRemSetValid(bool V) { RemSetValid = V; }
  bool remSetValid() const { return RemSetValid; }

  /// Pre-sizes the remembered set (multi-mutator mode fixes heap capacity
  /// up front; mirrors CardTable::ensureCapacity semantics).
  void ensureCapacity(ObjRef MaxRef) { RemSet.ensureCapacity(MaxRef); }

  /// The generational write barrier's slow path: old object \p Base just
  /// gained a young referent. Thread-safe (release byte store).
  void recordOldToYoung(ObjRef Base) {
    RemSet.dirty(Base);
    __atomic_fetch_add(&Stats.CardsDirtied, uint64_t(1), __ATOMIC_RELAXED);
  }

  const CardTable &remSet() const { return RemSet; }

  /// Runs one stop-the-world minor collection. \p MutatorRoots are every
  /// live mutator's stack/local references (the same root set the major
  /// cycles use); statics come from the heap. On return the nursery is
  /// empty and reset, the remembered set clean, and the heap's minor-GC
  /// request flag cleared.
  void collect(const std::vector<ObjRef> &MutatorRoots);

  const MinorGCStats &stats() const { return Stats; }

private:
  /// True when a concurrent marking cycle is active on the attached
  /// marker: survivors cannot be distinguished from snapshot members, so
  /// collect() must promote everything and free nothing.
  bool markingActive() const { return Marker && Marker->isActive(); }

  void promoteAll();
  void clearRemSet();

  Heap &H;
  CardTable RemSet;
  const MarkingCore *Marker = nullptr;
  bool RemSetValid = false;
  MinorGCStats Stats;
};

/// Single-mutator wiring: route the heap's nursery-exhaustion hook to a
/// synchronous minor collection rooted in \p E's frames. The hook fires
/// inside the allocation slow path, where both engines have their frame
/// state flushed (the reference engine always does; the fast engine
/// flushes IP/SP before every allocation), so the root set is exact and
/// identical across engines at the same allocation. \p E and \p Gen must
/// outlive the heap's use of the hook.
template <typename Engine>
void installNurseryHook(Heap &H, MinorGC &Gen, Engine &E) {
  H.setNurseryGCHook([&H, &Gen, &E] {
    (void)H;
    Gen.collect(E.collectRoots());
  });
}

} // namespace satb

#endif // SATB_GC_MINORGC_H
