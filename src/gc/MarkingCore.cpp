//===- gc/MarkingCore.cpp -------------------------------------------------===//

#include "gc/MarkingCore.h"

#include "support/ThreadPool.h"

#include <thread>

using namespace satb;

void MarkingCore::setMarkThreads(unsigned N, ThreadPool *Pool) {
  assert(!isActive() && "changing mark threads mid-cycle");
  assert((N <= 1 || (Pool && Pool->numThreads() >= N)) &&
         "MarkThreads > 1 needs a pool with at least that many threads");
  MarkThreads = N == 0 ? 1 : N;
  MarkPool = MarkThreads > 1 ? Pool : nullptr;
}

void MarkingCore::enableTraceCounts(size_t CapacityRefs) {
  TraceCounts.reset(new std::atomic<uint32_t>[CapacityRefs]());
  TraceCountCap = CapacityRefs;
}

void MarkingCore::Drainer::offload() {
  // The *oldest* half: deep stacks mean a skewed subgraph, and the bottom
  // entries fan out widest.
  GreySegment Out(Stack.begin(), Stack.begin() + GreySegmentTarget);
  Stack.erase(Stack.begin(), Stack.begin() + GreySegmentTarget);
  Core.Grey.push(std::move(Out));
}

void MarkingCore::beginCycle(const std::vector<ObjRef> &MutatorRoots) {
  assert(!isActive() && "marking already in progress");
  // Relaxed suffices: cycles begin at a stop-the-world point; the
  // safepoint release ordering publishes the flag to every mutator.
  Active.store(true, std::memory_order_relaxed);
  Serial.Stack.clear();
  // Roots are trivially part of the marked set.
  greyRoots(MutatorRoots);
  settle();
}

void MarkingCore::greyRoots(const std::vector<ObjRef> &MutatorRoots) {
  for (ObjRef R : MutatorRoots)
    Serial.grey(R);
  for (ObjRef R : H.staticRefs())
    Serial.grey(R);
}

bool MarkingCore::markStep(size_t Budget) {
  assert(isActive() && "markStep outside a marking cycle");
  counters().ConcurrentWork += drain(Budget);
  return greyEmpty() && !refillPending();
}

uint64_t MarkingCore::drain(size_t Budget) {
  if (MarkThreads == 1) {
    run(Serial, Budget, nullptr);
    return settle();
  }
  assert(MarkPool && MarkPool->numThreads() >= MarkThreads);
  // Seed the hand-off queue with whatever the serial entry points staged
  // (roots, SATB retraces, incremental update's root rescan).
  Grey.push(std::move(Serial.Stack));
  Serial.Stack.clear();
  TerminationGate Gate;
  Gate.reset(MarkThreads);
  std::atomic<uint64_t> Marked{0};
  std::atomic<uint64_t> Work{0};
  MarkPool->parallelFor(MarkThreads, [&](size_t W) {
    Drainer D(*this, /*Parallel=*/true, static_cast<unsigned>(W));
    run(D, Budget, &Gate);
    Marked.fetch_add(D.Marked);
    Work.fetch_add(D.Work);
  });
  Serial.Marked += Marked.load();
  Serial.Work += Work.load();
  return settle();
}

void MarkingCore::run(Drainer &D, size_t Budget, TerminationGate *Gate) {
  for (;;) {
    while (D.Work < Budget && D.scanOne())
      ;
    if (D.Work >= Budget) {
      // Budget exhausted: park remaining work where other workers (or the
      // next markStep) can reach it; the serial drainer keeps its stack.
      if (Gate) {
        Grey.push(std::move(D.Stack));
        Gate->goIdle();
      }
      return;
    }
    if ((Gate && Grey.tryPop(D.Stack)) || refill(D))
      continue;
    if (!Gate)
      return;
    // No work anywhere this worker can see: enter the termination
    // protocol (the file comment's re-offer check).
    Gate->goIdle();
    for (;;) {
      // Read the gate BEFORE re-checking for work: any segment handed off
      // before the last worker went idle is then guaranteed visible to the
      // work check, so "allIdle and still no work" is a sound exit.
      bool Done = Gate->allIdle();
      if (!Grey.empty() || refillPending()) {
        Gate->reOffer();
        break;
      }
      if (Done)
        return;
      std::this_thread::yield();
    }
  }
}

uint64_t MarkingCore::settle() {
  counters().MarkedObjects += Serial.Marked;
  Serial.Marked = 0;
  uint64_t Work = Serial.Work;
  Serial.Work = 0;
  return Work;
}

size_t MarkingCore::endCycle(size_t Pause) {
  counters().FinalPauseWork += Pause;
  Active.store(false, std::memory_order_relaxed);
  return Pause;
}

size_t MarkingCore::sweep() {
  assert(!isActive() && "sweep during marking");
  // A word-wise scan of the heap's live & ~marked bitmaps; the heap
  // clears marks and tracing states afterwards.
  size_t Freed = H.sweepUnmarked();
  counters().SweptObjects += Freed;
  return Freed;
}
