//===- gc/IncrementalUpdateMarker.cpp -------------------------------------===//

#include "gc/IncrementalUpdateMarker.h"

using namespace satb;

void IncrementalUpdateMarker::beginMarking(
    const std::vector<ObjRef> &MutatorRoots) {
  // Runs at a stop-the-world point; fix the card table's footprint first
  // so concurrent recordWrite can never resize it under the collector.
  Cards.ensureCapacity(H.maxRef());
  beginCycle(MutatorRoots);
}

bool IncrementalUpdateMarker::rescanCard(Drainer &D, uint32_t Card) {
  // Clean-then-scan: a store racing past the scan re-dirties the card for
  // the next pass (the testAndClean RMW orders the scan's reads after the
  // clean becomes visible). The exchange also lets exactly one parallel
  // worker claim each dirty instance.
  if (!Cards.isDirty(Card) || !Cards.testAndClean(Card))
    return false;
  ObjRef Begin = Card << CardTable::CardShift;
  ObjRef End = Begin + (1u << CardTable::CardShift);
  for (ObjRef R = Begin == 0 ? 1 : Begin; R < End && R <= H.maxRef(); ++R) {
    HeapObject *Obj = H.objectOrNull(R);
    if (!Obj)
      continue;
    // Re-examine every marked object on the card: its fields may have been
    // updated to point at unmarked objects. (Unmarked objects need no
    // examination: if they become reachable, the write that made them so
    // dirtied a card holding a marked object.)
    if (H.isMarked(R))
      D.greySlots(*Obj);
    ++D.Work;
  }
  return true;
}

bool IncrementalUpdateMarker::refill(Drainer &D) {
  const uint32_t NumCards = Cards.numCards();
  const uint32_t Offset =
      NumCards ? (uint64_t(D.Index) * NumCards) / markThreads() : 0;
  for (uint32_t I = Offset; I != NumCards; ++I)
    if (rescanCard(D, I))
      return true;
  for (uint32_t I = 0; I != Offset; ++I)
    if (rescanCard(D, I))
      return true;
  return false;
}

size_t IncrementalUpdateMarker::finishMarking(
    const std::vector<ObjRef> &MutatorRoots) {
  assert(isActive() && "finishMarking outside a marking cycle");
  // Roots must be re-scanned: the mutator may have stored the only
  // reference to an object into a root after the concurrent phase visited
  // it.
  greyRoots(MutatorRoots);
  if (markThreads() > 1) {
    // Mutators are parked, so nothing re-dirties a card behind the drain:
    // one parallel pass to completion reaches the clean-table fixpoint
    // (the termination gate re-offers on anyDirty until no card is left).
    ++Stats.FinalPausePasses;
    size_t Pause = drain(SIZE_MAX);
    assert(!refillPending() && "parallel drain left work");
    return endCycle(Pause);
  }
  // Iterate to a clean card table with the world stopped.
  bool Progress = true;
  while (Progress) {
    ++Stats.FinalPausePasses;
    Progress = false;
    while (Serial.scanOne())
      Progress = true;
    for (uint32_t Card = 0, E = Cards.numCards(); Card != E; ++Card)
      Progress |= rescanCard(Serial, Card);
  }
  return endCycle(settle());
}
