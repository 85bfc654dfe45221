//===- gc/SatbMarker.cpp --------------------------------------------------===//

#include "gc/SatbMarker.h"

using namespace satb;

void SatbMarker::beginMarking(const std::vector<ObjRef> &MutatorRoots) {
  H.setAllocateMarked(true);
  beginCycle(MutatorRoots);
}

bool SatbMarker::refill(Drainer &D) {
  std::vector<ObjRef> Buf;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (CompletedBuffers.empty())
      return false;
    Buf = std::move(CompletedBuffers.back());
    CompletedBuffers.pop_back();
  }
  for (ObjRef Pre : Buf)
    D.grey(Pre);
  ++D.Work;
  return true;
}

void SatbMarker::logPreValue(ObjRef Pre) {
  assert(Pre != NullRef && "inline barrier filters null pre-values");
  ++Stats.LoggedPreValues;
  CurrentBuffer.push_back(Pre);
  if (CurrentBuffer.size() >= BufferCapacity)
    flushCurrentBuffer();
}

void SatbMarker::flushCurrentBuffer() {
  if (CurrentBuffer.empty())
    return;
  if (isActive()) {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    ++Stats.BuffersFlushed;
    CompletedBuffers.push_back(std::move(CurrentBuffer));
  } else {
    // Always-log mode outside a cycle: recycle the buffer unread.
    ++Stats.BuffersDiscarded;
  }
  CurrentBuffer.clear();
}

void SatbMarker::flushBuffer(std::vector<ObjRef> &&Buf) {
  if (Buf.empty())
    return;
  std::lock_guard<std::mutex> Lock(QueueMutex);
  // Count at hand-over time (not per logPreValue call) so per-thread
  // shards need no separate counter merge: the queue lock makes the total
  // exact regardless of flush interleaving.
  Stats.LoggedPreValues += Buf.size();
  if (isActive()) {
    ++Stats.BuffersFlushed;
    CompletedBuffers.push_back(std::move(Buf));
  } else {
    ++Stats.BuffersDiscarded;
  }
}

bool SatbMarker::enterRearrange(ObjRef Arr) {
  if (!isActive() || Arr == NullRef)
    return false;
  HeapObject *Obj = H.objectOrNull(Arr);
  if (!Obj)
    return false;
  std::lock_guard<std::mutex> Lock(RearrangeMutex);
  ++Stats.RearrangesEntered;
  ActiveRearranges[Arr] = loadTracingRelaxed(*Obj);
  return true;
}

void SatbMarker::exitRearrange(ObjRef Arr) {
  std::lock_guard<std::mutex> Lock(RearrangeMutex);
  auto It = ActiveRearranges.find(Arr);
  if (It == ActiveRearranges.end())
    return;
  TraceState AtEnter = It->second;
  ActiveRearranges.erase(It);
  if (!isActive())
    return; // finishMarking already retraced the still-active set
  HeapObject *Obj = H.objectOrNull(Arr);
  TraceState Now = Obj ? loadTracingRelaxed(*Obj) : TraceState::Traced;
  // Safe cases: the marker finished with the array before the loop ran
  // (Traced -> Traced: it saw the pre-loop contents), or it never started
  // (Untraced -> Untraced: it will see the post-loop contents, plus the
  // dropped element logged at enter). Anything else may have interleaved.
  bool Clean = (AtEnter == TraceState::Traced && Now == TraceState::Traced) ||
               (AtEnter == TraceState::Untraced &&
                Now == TraceState::Untraced);
  if (Clean) {
    ++Stats.RearrangesClean;
    return;
  }
  ++Stats.RearrangeRetraces;
  RetraceList.push_back(Arr);
}

size_t SatbMarker::finishMarking() {
  assert(isActive() && "finishMarking outside a marking cycle");
  // The pause: every mutator is stopped (parked at a safepoint in the
  // multi-mutator driver, or the caller is sequential) with its context
  // buffer already flushed; drain everything to completion.
  flushCurrentBuffer();
  // Rearrangement loops still in flight, plus every array whose loop
  // overlapped the marker, are rescanned conservatively inside the pause.
  {
    std::lock_guard<std::mutex> Lock(RearrangeMutex);
    for (const auto &[Arr, State] : ActiveRearranges) {
      (void)State;
      ++Stats.RearrangeRetraces;
      RetraceList.push_back(Arr);
    }
    ActiveRearranges.clear();
    for (ObjRef Arr : RetraceList) {
      if (HeapObject *Obj = H.objectOrNull(Arr)) {
        Serial.greySlots(*Obj);
        ++Serial.Work;
      }
    }
    RetraceList.clear();
  }
  // Mutators are parked, so no new buffers can arrive: one drain to
  // completion empties the grey set and every hand-over buffer.
  size_t Pause = drain(SIZE_MAX);
  H.setAllocateMarked(false);
  return endCycle(Pause);
}
