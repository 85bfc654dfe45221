//===- interp/ThreadedCycle.cpp -------------------------------------------===//

#include "interp/ThreadedCycle.h"

#include "interp/FastInterp.h"
#include "interp/Safepoint.h"
#include "jit/FastCode.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <mutex>
#include <thread>

using namespace satb;

ConcurrentRunResult
satb::runWithThreadedSatb(Interpreter &I, SatbMarker &M, Heap &H,
                          MethodId Entry,
                          const std::vector<int64_t> &IntArgs,
                          const ConcurrentRunConfig &Cfg) {
  auto Concurrent = [&](MarkingCycle<SatbMarker> &Cycle,
                        uint64_t &Remaining) {
    std::mutex HeapLock;
    std::atomic<bool> MarkerDone{false};
    std::atomic<bool> MutatorStopped{false};
    std::thread Marker([&] {
      while (!MutatorStopped.load(std::memory_order_acquire)) {
        bool Done;
        {
          std::lock_guard<std::mutex> Guard(HeapLock);
          Done = Cycle.step(Cfg.MarkerQuantum);
        }
        if (Done)
          break;
        std::this_thread::yield();
      }
      MarkerDone.store(true, std::memory_order_release);
    });
    while (I.status() == RunStatus::Running && Remaining > 0 &&
           !MarkerDone.load(std::memory_order_acquire)) {
      uint64_t Quantum = std::min<uint64_t>(Cfg.MutatorQuantum, Remaining);
      {
        std::lock_guard<std::mutex> Guard(HeapLock);
        I.step(Quantum);
      }
      Remaining -= Quantum;
      std::this_thread::yield();
    }
    // The final pause follows once the marker thread has exited; the
    // mutator stays parked until then.
    MutatorStopped.store(true, std::memory_order_release);
    Marker.join();
  };
  return runSingleMutatorCycle(I, M, H, Entry, IntArgs, Cfg, Concurrent);
}

// --- Multi-mutator driver ---------------------------------------------------

MultiMutatorResult satb::runWithConcurrentMutators(
    unsigned Mutators, const Program &P, const CompiledProgram &CP,
    MethodId Entry, const std::vector<int64_t> &IntArgs,
    const MultiMutatorConfig &Cfg) {
  assert(Mutators > 0 && "need at least one mutator");
  assert(!CP.Options.EnableArrayRearrange &&
         "the rearrangement protocol is single-mutator-only");
  MultiMutatorResult R;
  const bool UseSatb = Cfg.Marker == MultiMarkerKind::Satb;

  TranslateOptions TO;
  TO.InsertSafepoints = true;
  TO.Fuse = Cfg.Fuse;
  // Tiered mode: one version table per mutator (tables are not
  // thread-safe; per-engine tables also keep promotion deterministic per
  // thread). Untiered mode shares one static translation, wrapped by
  // each engine in a zero-overhead table.
  FastProgram FP;
  std::vector<std::unique_ptr<MethodVersionTable>> Tables;
  if (Cfg.Tiered.Enabled)
    for (unsigned T = 0; T != Mutators; ++T)
      Tables.push_back(
          std::make_unique<MethodVersionTable>(P, CP, TO, Cfg.Tiered));
  else
    FP = translateProgram(P, CP, TO);

  Heap H(P);
  SatbMarker Satb(H, Cfg.SatbBufferCap);
  IncrementalUpdateMarker Inc(H);
  MarkingCore &Marker = UseSatb ? static_cast<MarkingCore &>(Satb) : Inc;
  SafepointCoordinator SC;
  SafepointPauseStats PauseStats;
  SC.setPauseStats(&PauseStats);
  // The trigger policy: the pacer's, unless DebugTraceCounts pins the
  // scripted single cycle (the mark-once instrumentation is per-cycle).
  const bool UsePacer = Cfg.Pacer.Enabled && !Cfg.DebugTraceCounts;
  Pacer Pace(H, Cfg.Pacer);

  // Mark worker pool: the coordinator thread participates as one worker,
  // so a pool of MarkThreads gives exactly that many marking threads.
  std::unique_ptr<ThreadPool> MarkPool;
  if (Cfg.MarkThreads > 1) {
    MarkPool = std::make_unique<ThreadPool>(Cfg.MarkThreads);
    Marker.setMarkThreads(Cfg.MarkThreads, MarkPool.get());
  }
  if (Cfg.DebugTraceCounts)
    Marker.enableTraceCounts(Cfg.HeapCapacityRefs);

  H.enterMultiMutator(Cfg.HeapCapacityRefs);

  // Generational layer: nursery TLAB chunks for every mutator, with the
  // coordinator serving stop-the-world minor collections on request. The
  // remembered set is only maintained by the generational barrier; any
  // other barrier mode falls back to wholesale promotion (sound, less
  // precise).
  MinorGC Gen(H);
  if (Cfg.EnableNursery) {
    Heap::NurseryConfig NC;
    NC.NurseryBytes = Cfg.NurseryBytes;
    NC.PretenureBytes = Cfg.PretenureBytes;
    H.enableNursery(NC);
    Gen.attachMarker(&Marker);
    Gen.ensureCapacity(Cfg.HeapCapacityRefs);
    Gen.setRemSetValid(CP.Options.Barrier == BarrierMode::Generational);
  }

  std::vector<std::unique_ptr<FastInterp>> Engines;
  Engines.reserve(Mutators);
  for (unsigned T = 0; T != Mutators; ++T) {
    auto E = Cfg.Tiered.Enabled
                 ? std::make_unique<FastInterp>(*Tables[T], CP, H)
                 : std::make_unique<FastInterp>(FP, CP, H);
    if (UseSatb)
      E->attachSatb(&Satb);
    else
      E->attachIncUpdate(&Inc);
    if (Cfg.EnableNursery)
      E->attachGen(&Gen);
    E->context().enterMultiMutator(SC.flag(), Cfg.SatbBufferCap);
    SC.registerMutator();
    Engines.push_back(std::move(E));
  }

  // Every engine's frames: the root set of each stop-the-world operation.
  auto AllRoots = [&] {
    std::vector<ObjRef> Roots, Tmp;
    for (auto &E : Engines) {
      E->collectRoots(Tmp);
      Roots.insert(Roots.end(), Tmp.begin(), Tmp.end());
    }
    return Roots;
  };

  // Stop-the-world minor collection service: a mutator whose nursery
  // chunk refill failed raised the heap's request flag (and fell back to
  // old-space allocation, so it never blocks). Roots are every engine's
  // frames; afterwards each context's TLAB is dropped if it pointed into
  // the recycled nursery buffer.
  auto ServeMinorGC = [&] {
    if (!Cfg.EnableNursery)
      return;
    // Pacer mode: raise the request proactively once the nursery is
    // NurseryFillPct carved, so the collection runs while mutators still
    // have headroom instead of after a refill already failed.
    if (UsePacer && !H.minorGCRequested() && Pace.shouldRequestMinorGC())
      H.requestMinorGC();
    if (!H.minorGCRequested())
      return;
    SC.stopTheWorld([&] {
      if (!H.minorGCRequested())
        return; // raced with a collection already served
      Gen.collect(AllRoots());
      for (auto &E : Engines) {
        E->context().invalidateNurseryTlab();
        // Young-speculating versions assumed "allocated after the last
        // GC"; the collection just falsified that, so retire them and
        // transfer their frames while every mutator is parked with
        // flushed frames (interp/Safepoint.h invalidation rules).
        E->invalidateYoungSpeculation();
      }
    });
  };

  // Per-mutator histogram shards, merged after the join (same discipline
  // as the BarrierStats shards: no synchronization while threads run).
  std::vector<Histogram> ParkShards(Mutators);
  std::vector<Histogram> RequestShards(Mutators);
  R.RequestsCompleted.assign(Mutators, 0);

  std::vector<std::thread> Threads;
  Threads.reserve(Mutators);
  for (unsigned T = 0; T != Mutators; ++T) {
    Threads.emplace_back([&, T] {
      FastInterp &E = *Engines[T];
      uint64_t Remaining = Cfg.StepLimit;
      // Parks happen only at GC points the barrier analysis models: before
      // the first instruction after start() (a method entry, Young empty)
      // or where the engine suspended at a translated Safepoint poll. A
      // slice that ran out of fuel may have stopped between a `new` and
      // an elided store into it, so a pending pause keeps the mutator
      // stepping until its next poll. The poll handler is the only
      // early exit that leaves the status Running, so "Running with fuel
      // to spare" identifies it; the assert catches any later early exit
      // that breaks this rule (FastInterp::suspendedAtPoll).
      auto Drive = [&] {
        bool AtGCPoint = true;
        while (E.status() == RunStatus::Running && Remaining > 0) {
          if (AtGCPoint && SC.requested()) {
            Stopwatch ParkTimer;
            SC.park();
            ParkShards[T].record(
                static_cast<uint64_t>(ParkTimer.elapsedUs() * 1000.0));
          }
          uint64_t Fuel = std::min<uint64_t>(Cfg.PollQuantum, Remaining);
          uint64_t Before = E.stepsExecuted();
          E.step(Fuel);
          uint64_t Ran = E.stepsExecuted() - Before;
          Remaining -= std::min<uint64_t>(Ran, Remaining);
          AtGCPoint = Ran < Fuel;
          assert((!AtGCPoint || E.status() != RunStatus::Running ||
                  E.suspendedAtPoll()) &&
                 "step() returned Running with fuel left away from a poll");
        }
      };
      if (Cfg.Requests == 0) {
        E.start(Entry, IntArgs);
        Drive();
      } else {
        // Server mode: one Entry invocation per request. start() resets
        // frames but accumulates stepsExecuted, so Remaining keeps
        // bounding the mutator's total work.
        for (uint64_t Q = 0; Q != Cfg.Requests && Remaining > 0; ++Q) {
          Stopwatch RequestTimer;
          E.start(Entry, IntArgs);
          Drive();
          if (E.status() != RunStatus::Finished)
            break; // trap or step-limit: Statuses[T] reports it
          RequestShards[T].record(
              static_cast<uint64_t>(RequestTimer.elapsedUs() * 1000.0));
          ++R.RequestsCompleted[T];
        }
      }
      // Hand over any in-flight SATB buffer before counting as exited; the
      // coordinator is still waiting on this thread's headcount, so the
      // flush cannot race a stop-the-world flush of the same context.
      E.context().flush();
      SC.markExited();
    });
  }

  // The coordinator: one loop serves minor collections, runs concurrent
  // marking quanta on this thread, and starts and finishes cycles with
  // stop-the-world handshakes when the trigger policy says so. The
  // scripted policy runs exactly one cycle, started once the mutators have
  // allocated WarmupAllocs objects (or all exited); the pacer policy runs
  // as many as allocation pressure asks for, each with its own per-cycle
  // oracle (accumulated: one bad cycle fails the run). Three idle marking
  // rounds in a row mean the marker waits on mutator activity it may
  // never get, so the cycle's final pause follows. Mutators never wait on
  // the policy; they stop only at the handshakes themselves.
  auto Coordinate = [&](auto &Cycle) {
    bool InCycle = false;
    size_t IdleStreak = 0;
    auto ShouldStart = [&](bool AllExited) {
      if (UsePacer)
        return Pace.shouldStartCycle();
      return R.Cycles == 0 &&
             (AllExited || H.numAllocated() >= Cfg.WarmupAllocs);
    };
    // After the scripted cycle, a run without a nursery leaves the
    // coordinator nothing to serve: it waits in the join instead.
    auto NothingToServe = [&] {
      return !UsePacer && R.Cycles == 1 && !Cfg.EnableNursery;
    };
    auto BeginCycle = [&] {
      SC.stopTheWorld([&] { Cycle.begin(AllRoots()); });
      if (UsePacer)
        Pace.noteCycleStart();
      InCycle = true;
      IdleStreak = 0;
    };
    // The final pause: flush every context, terminate marking, check the
    // oracle and sweep, all inside the pause.
    auto FinishCycle = [&] {
      SC.stopTheWorld([&] {
        for (auto &E : Engines)
          E->context().flush();
        R.FinalPauseWork += Cycle.finish(AllRoots);
        R.Swept += Cycle.sweep();
        if (Cfg.DebugTraceCounts) {
          R.TraceCounts.resize(H.maxRef() + 1, 0);
          for (ObjRef Ref = 1; Ref <= H.maxRef(); ++Ref)
            R.TraceCounts[Ref] = Cycle.marker().traceCount(Ref);
          R.SnapshotSet = Cycle.Snapshot;
        }
      });
      if (UsePacer)
        Pace.noteCycleEnd();
      InCycle = false;
      ++R.Cycles;
    };

    while (SC.exitedCount() < Mutators && !NothingToServe()) {
      ServeMinorGC();
      if (InCycle) {
        if (!Cycle.step(Cfg.MarkerQuantum))
          IdleStreak = 0;
        else if (++IdleStreak >= 3)
          FinishCycle();
        else
          std::this_thread::yield();
      } else if (ShouldStart(/*AllExited=*/false)) {
        BeginCycle();
      } else {
        std::this_thread::yield();
      }
    }
    // Every mutator exited (or the scripted cycle is done and nothing is
    // left to serve): terminate an in-flight cycle against the quiesced
    // heap, or run a cycle the policy still owes — on a busy
    // (or single-CPU) host a short run can finish inside one scheduler
    // slice, before the coordinator's first poll. Outstanding allocation
    // pressure (pacer) or a never-started scripted cycle still owes a
    // collection; a raised minor-GC request still owes a nursery sweep.
    // Both run exactly as they would have mid-run, so "the policy's
    // cycles happen" holds on any host.
    ServeMinorGC();
    if (InCycle) {
      FinishCycle();
    } else if (ShouldStart(/*AllExited=*/true)) {
      BeginCycle();
      while (!Cycle.step(Cfg.MarkerQuantum))
        ;
      FinishCycle();
    }
    R.OracleHolds = Cycle.OracleHolds;
    R.OracleLive = Cycle.OracleLive;
    R.Marked = Cycle.marker().stats().MarkedObjects;
  };
  if (UseSatb) {
    MarkingCycle<SatbMarker> Cycle(Satb, H);
    Coordinate(Cycle);
  } else {
    MarkingCycle<IncrementalUpdateMarker> Cycle(Inc, H);
    Coordinate(Cycle);
  }

  for (std::thread &T : Threads)
    T.join();

  R.Merged.init(CP);
  R.Statuses.reserve(Mutators);
  R.Traps.reserve(Mutators);
  R.Steps.reserve(Mutators);
  R.Shards.reserve(Mutators);
  for (auto &E : Engines) {
    E->context().exitMultiMutator();
    R.Statuses.push_back(E->status());
    R.Traps.push_back(E->trap());
    R.Steps.push_back(E->stepsExecuted());
    R.Shards.push_back(E->stats());
    R.Merged.merge(E->stats());
  }
  BarrierStats::Summary Sum = R.Merged.summarize();
  R.Violations = Sum.Violations;
  R.RemSetViolations = Sum.RemSetViolations;
  R.LoggedPreValues = Satb.stats().LoggedPreValues;
  for (unsigned T = 0; T != Mutators; ++T) {
    R.MutatorPauseNs.merge(ParkShards[T]);
    R.RequestNs.merge(RequestShards[T]);
    R.TotalRequests += R.RequestsCompleted[T];
  }
  R.Pacing = Pace.stats();
  SC.setPauseStats(nullptr);
  R.Safepoint = PauseStats;
  if (Cfg.EnableNursery) {
    // Empty the nursery with one last collection (every thread has
    // joined; the markers are idle, so survivors promote precisely when
    // the remembered set is valid) — no young object may outlive the
    // nursery buffer.
    Gen.collect(AllRoots());
    H.disableNursery();
  }
  R.Minor = Gen.stats();
  H.exitMultiMutator();
  return R;
}
