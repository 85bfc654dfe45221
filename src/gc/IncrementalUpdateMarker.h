//===- gc/IncrementalUpdateMarker.h - Mostly-parallel marking --*- C++ -*-===//
///
/// \file
/// The comparison collector of Section 1: incremental-update concurrent
/// marking in the mostly-parallel style of Boehm, Demers, and Shenker [6].
/// The mutator's card-marking barrier records *where* pointers were
/// written; the collector re-examines dirty locations. Unlike SATB,
/// objects allocated during marking must be examined (their cards are
/// dirtied at birth), and the final stop-the-world pause must re-scan
/// roots and iterate over dirty cards until clean — which is why the paper
/// reports SATB termination pauses "sometimes more than an order of
/// magnitude smaller" (bench S1 reproduces the asymmetry).
///
//===----------------------------------------------------------------------===//

#ifndef SATB_GC_INCREMENTALUPDATEMARKER_H
#define SATB_GC_INCREMENTALUPDATEMARKER_H

#include "gc/MarkingCore.h"

namespace satb {

/// A card table over ObjRefs: CardShift objects per card. Bytes, not
/// vector<bool> — mutators dirty cards concurrently and packed bits would
/// race on the shared word.
///
/// Memory protocol: dirty() is a release store and the collector's
/// testAndClean() an acq_rel exchange, so observing a dirty card also
/// observes the slot store that preceded it in the barrier ("store the
/// reference, then dirty the card"). A dirty the exchange races past
/// survives as a 1 for the next scan pass; the final pause iterates with
/// the world stopped until no pass finds one.
class CardTable {
public:
  static constexpr uint32_t CardShift = 7; ///< 128 objects per card

  /// Pre-sizes the table for refs up to \p MaxRef so no mutator-side
  /// dirty() can ever resize it while the collector scans (required in
  /// multi-mutator mode, where heap capacity is fixed up front).
  void ensureCapacity(ObjRef MaxRef) {
    uint32_t Cards = (MaxRef >> CardShift) + 1;
    if (Cards > Dirty.size())
      Dirty.resize(Cards, 0);
  }

  void dirty(ObjRef R) {
    uint32_t Card = R >> CardShift;
    if (Card >= Dirty.size())
      Dirty.resize(Card + 1, 0); // single-mutator growth path only
    __atomic_store_n(&Dirty[Card], uint8_t(1), __ATOMIC_RELEASE);
  }
  bool isDirty(uint32_t Card) const {
    return Card < Dirty.size() &&
           __atomic_load_n(&Dirty[Card], __ATOMIC_ACQUIRE);
  }
  /// Cleans the card and \returns whether it was dirty. The acq_rel RMW
  /// (a locked instruction on x86) keeps the subsequent slot reads from
  /// starting before the clean is visible — the classic card-scan fence.
  bool testAndClean(uint32_t Card) {
    if (Card >= Dirty.size())
      return false;
    return __atomic_exchange_n(&Dirty[Card], uint8_t(0), __ATOMIC_ACQ_REL);
  }
  uint32_t numCards() const { return static_cast<uint32_t>(Dirty.size()); }
  bool anyDirty() const {
    for (size_t I = 0, E = Dirty.size(); I != E; ++I)
      if (__atomic_load_n(&Dirty[I], __ATOMIC_RELAXED))
        return true;
    return false;
  }

private:
  std::vector<uint8_t> Dirty;
};

struct IncUpdateStats : MarkStats {
  uint64_t CardsDirtied = 0;    ///< barrier executions
  uint64_t FinalPausePasses = 0;
};

/// The incremental-update marker: the marking core (gc/MarkingCore.h)
/// refilled from dirty cards. markStep, sweep and the parallel-marking and
/// trace-count knobs are the core's; with MarkThreads > 1 workers claim
/// dirty cards through the card table's atomic testAndClean.
class IncrementalUpdateMarker : public MarkingCore {
public:
  explicit IncrementalUpdateMarker(Heap &H) : MarkingCore(H) {}

  void beginMarking(const std::vector<ObjRef> &MutatorRoots);

  /// Mutator barrier: the card of the written object goes dirty. Also
  /// called for objects allocated during marking. Thread-safe (release
  /// byte store + relaxed counter).
  void recordWrite(ObjRef Obj) {
    if (!isActive())
      return;
    Cards.dirty(Obj);
    __atomic_fetch_add(&Stats.CardsDirtied, uint64_t(1), __ATOMIC_RELAXED);
  }

  /// Final stop-the-world pause: re-scan roots and iterate dirty-card
  /// scanning to a clean table. \returns the pause work.
  size_t finishMarking(const std::vector<ObjRef> &MutatorRoots);

  const IncUpdateStats &stats() const { return Stats; }

private:
  MarkStats &counters() override { return Stats; }
  /// Refill: rescans the first dirty card at or after \p D's staggered
  /// offset, so parallel workers fan out over dirty regions instead of all
  /// racing on the lowest card.
  bool refill(Drainer &D) override;
  bool refillPending() override { return Cards.anyDirty(); }
  /// Cleans \p Card if dirty and re-examines every marked object on it
  /// into \p D. \returns whether the card was dirty.
  bool rescanCard(Drainer &D, uint32_t Card);

  CardTable Cards;
  IncUpdateStats Stats;
};

} // namespace satb

#endif // SATB_GC_INCREMENTALUPDATEMARKER_H
