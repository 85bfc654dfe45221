//===- tests/heap_test.cpp - Heap, layout, allocation zeroing -------------===//

#include "heap/Heap.h"

#include "gc/MinorGC.h"
#include "gc/SatbMarker.h"

#include <gtest/gtest.h>

using namespace satb;

namespace {

struct HeapFixture : ::testing::Test {
  Program P;
  ClassId C;
  FieldId R1, I1, R2;
  StaticFieldId SRef, SInt;
  HeapFixture() {
    C = P.addClass("C");
    R1 = P.addField(C, "r1", JType::Ref);
    I1 = P.addField(C, "i1", JType::Int);
    R2 = P.addField(C, "r2", JType::Ref);
    SRef = P.addStaticField("sr", JType::Ref);
    SInt = P.addStaticField("si", JType::Int);
  }
};

} // namespace

TEST_F(HeapFixture, AllocatorZeroesFields) {
  Heap H(P);
  ObjRef R = H.allocateObject(C);
  const HeapObject &O = H.object(R);
  EXPECT_EQ(O.Kind, ObjectKind::Object);
  EXPECT_EQ(O.Class, C);
  ASSERT_EQ(O.refSlots().size(), 2u); // r1, r2
  ASSERT_EQ(O.NumInts, 1u);
  EXPECT_EQ(O.refs()[0], NullRef);
  EXPECT_EQ(O.refs()[1], NullRef);
  EXPECT_EQ(O.ints()[0], 0);
}

TEST_F(HeapFixture, ArrayAllocationZeroed) {
  Heap H(P);
  ObjRef A = H.allocateRefArray(5);
  const HeapObject &O = H.object(A);
  EXPECT_EQ(O.Kind, ObjectKind::RefArray);
  EXPECT_EQ(O.arrayLength(), 5u);
  for (ObjRef E : O.refSlots())
    EXPECT_EQ(E, NullRef);
  ObjRef I = H.allocateIntArray(3);
  EXPECT_EQ(H.object(I).arrayLength(), 3u);
  EXPECT_EQ(H.object(I).ints()[2], 0);
}

TEST_F(HeapFixture, FieldSlotLayoutSeparatesKinds) {
  Heap H(P);
  // r1 and r2 occupy ref slots 0 and 1; i1 occupies int slot 0.
  EXPECT_EQ(H.fieldSlot(R1).Type, JType::Ref);
  EXPECT_EQ(H.fieldSlot(R1).Slot, 0u);
  EXPECT_EQ(H.fieldSlot(R2).Slot, 1u);
  EXPECT_EQ(H.fieldSlot(I1).Type, JType::Int);
  EXPECT_EQ(H.fieldSlot(I1).Slot, 0u);
}

TEST_F(HeapFixture, StaticsStartZeroed) {
  Heap H(P);
  EXPECT_EQ(H.getStaticRef(SRef), NullRef);
  EXPECT_EQ(H.getStaticInt(SInt), 0);
  ObjRef R = H.allocateObject(C);
  H.setStaticRef(SRef, R);
  EXPECT_EQ(H.getStaticRef(SRef), R);
}

TEST_F(HeapFixture, FreeAndReuse) {
  Heap H(P);
  ObjRef A = H.allocateObject(C);
  EXPECT_EQ(H.numLive(), 1u);
  H.free(A);
  EXPECT_EQ(H.numLive(), 0u);
  EXPECT_EQ(H.objectOrNull(A), nullptr);
  ObjRef B = H.allocateObject(C);
  EXPECT_EQ(B, A); // slot recycled
  EXPECT_EQ(H.numAllocated(), 2u);
}

TEST_F(HeapFixture, AllocateMarkedFlag) {
  Heap H(P);
  ObjRef A = H.allocateObject(C);
  EXPECT_FALSE(H.isMarked(A));
  H.setAllocateMarked(true);
  ObjRef B = H.allocateObject(C);
  EXPECT_TRUE(H.isMarked(B));
  H.setAllocateMarked(false);
  EXPECT_FALSE(H.isMarked(H.allocateObject(C)));
}

TEST_F(HeapFixture, ClearMarksResetsTracingState) {
  Heap H(P);
  ObjRef A = H.allocateObject(C);
  H.setMarked(A);
  H.object(A).Tracing = TraceState::Traced;
  H.clearMarks();
  EXPECT_FALSE(H.isMarked(A));
  EXPECT_EQ(H.object(A).Tracing, TraceState::Untraced);
}

TEST_F(HeapFixture, ComputeReachableFollowsFieldsAndStatics) {
  Heap H(P);
  ObjRef A = H.allocateObject(C);
  ObjRef B = H.allocateObject(C);
  ObjRef D = H.allocateObject(C);
  ObjRef Unreached = H.allocateObject(C);
  H.object(A).refs()[0] = B;
  H.object(B).refs()[1] = D;
  H.setStaticRef(SRef, A);
  std::vector<bool> Reached = computeReachable(H, {});
  EXPECT_TRUE(Reached[A]);
  EXPECT_TRUE(Reached[B]);
  EXPECT_TRUE(Reached[D]);
  EXPECT_FALSE(Reached[Unreached]);
}

TEST_F(HeapFixture, ComputeReachableThroughArraysAndRoots) {
  Heap H(P);
  ObjRef Arr = H.allocateRefArray(3);
  ObjRef X = H.allocateObject(C);
  H.object(Arr).refs()[1] = X;
  std::vector<bool> Reached = computeReachable(H, {Arr});
  EXPECT_TRUE(Reached[Arr]);
  EXPECT_TRUE(Reached[X]);
}

TEST_F(HeapFixture, ComputeReachableHandlesCycles) {
  Heap H(P);
  ObjRef A = H.allocateObject(C);
  ObjRef B = H.allocateObject(C);
  H.object(A).refs()[0] = B;
  H.object(B).refs()[0] = A;
  std::vector<bool> Reached = computeReachable(H, {A});
  EXPECT_TRUE(Reached[A]);
  EXPECT_TRUE(Reached[B]);
}

TEST_F(HeapFixture, BytesAllocatedGrows) {
  Heap H(P);
  uint64_t Before = H.bytesAllocatedApprox();
  H.allocateRefArray(100);
  EXPECT_GT(H.bytesAllocatedApprox(), Before);
}

// --- Generational layer: nursery, promotion, minor collection ---------------

TEST_F(HeapFixture, NurseryBumpAllocationSetsYoungBit) {
  Heap H(P);
  H.enableNursery();
  ObjRef A = H.allocateObject(C);
  EXPECT_TRUE(H.isYoung(A));
  EXPECT_TRUE(H.inNursery(&H.object(A)));
  uint64_t Used = H.nurseryUsedBytes();
  EXPECT_GT(Used, 0u);
  ObjRef B = H.allocateObject(C);
  EXPECT_TRUE(H.isYoung(B));
  EXPECT_GT(H.nurseryUsedBytes(), Used); // bump pointer advanced
}

TEST_F(HeapFixture, PretenureBypassesNursery) {
  Heap H(P);
  Heap::NurseryConfig NC;
  NC.PretenureBytes = 64;
  H.enableNursery(NC);
  ObjRef Big = H.allocateRefArray(100); // block > 64 bytes: pretenured
  EXPECT_FALSE(H.isYoung(Big));
  EXPECT_FALSE(H.inNursery(&H.object(Big)));
  ObjRef Small = H.allocateObject(C);
  EXPECT_TRUE(H.isYoung(Small));
}

TEST_F(HeapFixture, NurseryExhaustionWithoutCollectorPretenures) {
  // No GC hook installed: once the nursery fills, allocation falls back to
  // old space and never fails. Earlier young objects keep their placement.
  Heap H(P);
  Heap::NurseryConfig NC;
  NC.NurseryBytes = 256;
  NC.PretenureBytes = 128;
  H.enableNursery(NC);
  std::vector<ObjRef> Refs;
  for (int I = 0; I != 32; ++I)
    Refs.push_back(H.allocateObject(C));
  EXPECT_TRUE(H.isYoung(Refs.front()));
  EXPECT_FALSE(H.isYoung(Refs.back()));
  for (ObjRef R : Refs)
    EXPECT_TRUE(H.isLive(R));
}

TEST_F(HeapFixture, PromotionIsRefStableAndPreservesContents) {
  // Promotion republishes the object-table entry: the ObjRef survives, so
  // interior references into and out of the survivor need no fixup.
  Heap H(P);
  H.enableNursery();
  ObjRef A = H.allocateObject(C);
  ObjRef B = H.allocateObject(C);
  H.object(A).refs()[0] = B; // young-to-young interior reference
  H.object(A).ints()[0] = 77;
  const HeapObject *YoungAddr = &H.object(A);
  uint32_t Bytes = H.promoteToOld(A);
  EXPECT_EQ(Bytes, YoungAddr->blockBytes());
  EXPECT_FALSE(H.isYoung(A));
  EXPECT_TRUE(H.isLive(A));
  EXPECT_NE(&H.object(A), YoungAddr);
  EXPECT_FALSE(H.inNursery(&H.object(A)));
  EXPECT_EQ(H.object(A).refs()[0], B); // slots copied verbatim
  EXPECT_EQ(H.object(A).ints()[0], 77);
  EXPECT_TRUE(H.isYoung(B)); // referent untouched by the move
}

TEST_F(HeapFixture, MinorGCPrecisionRemSetAndRoots) {
  Heap H(P);
  ObjRef Old = H.allocateObject(C); // allocated before the nursery: old
  H.enableNursery();
  MinorGC Gen(H);
  Gen.setRemSetValid(true);
  ObjRef Kept = H.allocateObject(C);    // young, reached via the remset
  ObjRef Rooted = H.allocateObject(C);  // young, reached via a mutator root
  ObjRef Dead = H.allocateObject(C);    // young, unreachable
  ObjRef Chained = H.allocateObject(C); // young, reached via Kept
  H.object(Old).refs()[0] = Kept;
  Gen.recordOldToYoung(Old); // what the generational barrier does
  H.object(Kept).refs()[0] = Chained; // young-to-young: no barrier needed
  Gen.collect({Rooted});
  EXPECT_TRUE(H.isLive(Kept) && !H.isYoung(Kept));
  EXPECT_TRUE(H.isLive(Rooted) && !H.isYoung(Rooted));
  EXPECT_TRUE(H.isLive(Chained) && !H.isYoung(Chained));
  EXPECT_FALSE(H.isLive(Dead));
  EXPECT_EQ(H.object(Old).refs()[0], Kept); // edges survive promotion
  EXPECT_EQ(H.object(Kept).refs()[0], Chained);
  EXPECT_EQ(H.nurseryUsedBytes(), 0u); // buffer recycled wholesale
  const MinorGCStats &S = Gen.stats();
  EXPECT_EQ(S.Collections, 1u);
  EXPECT_EQ(S.WholesalePromotions, 0u);
  EXPECT_EQ(S.PromotedObjects, 3u);
  EXPECT_EQ(S.FreedYoung, 1u);
  EXPECT_EQ(S.CardsDirtied, 1u);
  EXPECT_EQ(S.RemSetCardsScanned, 1u);
  EXPECT_GE(S.RemSetOldScanned, 1u);
  EXPECT_EQ(S.RootYoung, 1u);
}

TEST_F(HeapFixture, MinorGCDirtyCardOverApproximationIsSafe) {
  // A card covers 2^CardShift consecutive ObjRefs, so the remembered set
  // over-approximates: scanning a dirty card re-examines *every* old
  // object on it. A young referent held only by an unrecorded neighbour
  // on the same card must still survive a precise collection.
  Heap H(P);
  ObjRef OldA = H.allocateObject(C);
  ObjRef OldB = H.allocateObject(C);
  ASSERT_EQ(OldA >> CardTable::CardShift, OldB >> CardTable::CardShift);
  H.enableNursery();
  MinorGC Gen(H);
  Gen.setRemSetValid(true);
  ObjRef YoungA = H.allocateObject(C);
  ObjRef YoungB = H.allocateObject(C);
  H.object(OldA).refs()[0] = YoungA;
  H.object(OldB).refs()[0] = YoungB;
  Gen.recordOldToYoung(OldA); // OldB's edge never recorded
  Gen.collect({});
  EXPECT_TRUE(H.isLive(YoungA) && !H.isYoung(YoungA));
  EXPECT_TRUE(H.isLive(YoungB) && !H.isYoung(YoungB));
  EXPECT_EQ(Gen.stats().RemSetCardsScanned, 1u);
}

TEST_F(HeapFixture, MinorGCWholesaleWhenRemSetInvalid) {
  // RemSetValid defaults to false (no generational barrier maintaining
  // it): the collection must promote everything and free nothing.
  Heap H(P);
  H.enableNursery();
  MinorGC Gen(H);
  ObjRef Dead = H.allocateObject(C);
  ObjRef Live = H.allocateObject(C);
  Gen.collect({Live});
  EXPECT_TRUE(H.isLive(Dead) && !H.isYoung(Dead));
  EXPECT_TRUE(H.isLive(Live) && !H.isYoung(Live));
  EXPECT_EQ(Gen.stats().WholesalePromotions, 1u);
  EXPECT_EQ(Gen.stats().FreedYoung, 0u);
  EXPECT_EQ(H.nurseryUsedBytes(), 0u);
}

TEST_F(HeapFixture, MinorGCWholesaleDuringActiveMarking) {
  // A minor collection overlapping a SATB cycle may not free young
  // objects even with a valid remembered set: an unreachable young object
  // could still be part of the marker's snapshot.
  Heap H(P);
  SatbMarker M(H);
  H.enableNursery();
  MinorGC Gen(H);
  Gen.attachMarker(&M);
  Gen.setRemSetValid(true);
  ObjRef Dead = H.allocateObject(C);
  M.beginMarking({Dead});
  Gen.collect({});
  EXPECT_TRUE(H.isLive(Dead) && !H.isYoung(Dead));
  EXPECT_EQ(Gen.stats().WholesalePromotions, 1u);
  EXPECT_EQ(Gen.stats().FreedYoung, 0u);
  while (!M.markStep(64))
    ;
  M.finishMarking();
  EXPECT_TRUE(H.isMarked(Dead)); // the snapshot member survived promotion
}

TEST_F(HeapFixture, NurseryTlabRefillRequestsMinorGCAndFallsBack) {
  // Multi-mutator mode: a TLAB chunk refill that finds the nursery
  // exhausted raises the minor-GC request and hands out an old-space
  // chunk — the mutator never blocks inside an allocation. Objects in
  // the fallback chunk are still *born young* (youngness is the logical
  // bitmap, not an address range): the compile-time young-target proof
  // elides the remembered-set barrier on stores into freshly allocated
  // objects, which a pretenured-at-birth object would break.
  Heap H(P);
  H.enterMultiMutator(1u << 12);
  Heap::NurseryConfig NC;
  NC.NurseryBytes = 8192; // exactly one TLAB chunk
  H.enableNursery(NC);
  Heap::Tlab T;
  ObjRef A = H.allocateObjectTlab(T, C); // first chunk: the whole nursery
  EXPECT_TRUE(H.isYoung(A));
  EXPECT_FALSE(H.minorGCRequested());
  H.invalidateNurseryTlab(T); // drop the nursery chunk mid-use
  EXPECT_EQ(T.Cur, nullptr);
  ObjRef B = H.allocateObjectTlab(T, C); // refill fails: old-space chunk
  EXPECT_TRUE(H.isYoung(B));
  EXPECT_TRUE(H.isLive(B));
  EXPECT_TRUE(H.minorGCRequested());
  // An old-space TLAB is unaffected by nursery invalidation.
  char *OldCur = T.Cur;
  H.invalidateNurseryTlab(T);
  EXPECT_EQ(T.Cur, OldCur);
  // The pre-exhaustion young object kept its placement.
  EXPECT_TRUE(H.isYoung(A));
  // Promoting a fallback-chunk survivor is in-place: the storage is
  // already tenured, so only the young bit changes.
  const HeapObject *Before = &H.object(B);
  H.promoteToOld(B);
  EXPECT_FALSE(H.isYoung(B));
  EXPECT_EQ(&H.object(B), Before);
  H.clearMinorGCRequest();
  H.exitMultiMutator();
}

TEST_F(HeapFixture, DisableNurseryRestoresOldSpaceAllocation) {
  Heap H(P);
  H.enableNursery();
  ObjRef A = H.allocateObject(C);
  H.promoteToOld(A); // empty the nursery so disabling is legal
  H.resetNursery();
  H.disableNursery();
  EXPECT_FALSE(H.nurseryEnabled());
  ObjRef B = H.allocateObject(C);
  EXPECT_FALSE(H.isYoung(B));
}
