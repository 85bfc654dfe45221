//===- interp/ThreadedCycle.h - Real-thread concurrent marking -*- C++ -*-===//
///
/// \file
/// Concurrent cycles on real OS threads, the setting the paper targets
/// ("garbage collection and the user program execute simultaneously",
/// Section 1). Both drivers run their cycles through the MarkingCycle
/// adapter (interp/Interpreter.h), so begin, finish and the oracle are the
/// deterministic driver's:
///
///  - runWithThreadedSatb: one mutator, the marker on its own thread,
///    synchronized by a coarse per-quantum mutex. The simplest real-thread
///    configuration, and the only one that runs the Section 4.3
///    rearrangement protocol against a marker on another thread.
///
///  - runWithConcurrentMutators: N FastInterp mutators against one heap
///    (SATB or incremental update) and *no* coarse lock. Each mutator runs
///    through its MutatorContext (TLAB allocation, private SATB buffer,
///    per-thread BarrierStats shard) and polls a safepoint flag at
///    translated poll sites. One coordinator loop serves minor
///    collections, drains hand-over buffers concurrently, and starts and
///    finishes cycles with real stop-the-world handshakes
///    (SafepointCoordinator) as its trigger policy says: the scripted
///    policy runs one cycle after a warmup, the pacer policy as many as
///    allocation pressure asks for. The oracle is evaluated inside each
///    final pause. See DESIGN.md "Multi-mutator runtime" for the
///    memory-model contract.
///
/// The Section 4.3 array-rearrangement protocol is single-mutator-only
/// (its active-set bookkeeping assumes one bracketing thread) and must be
/// compiled out (EnableArrayRearrange=false, the default) for
/// multi-mutator runs.
///
//===----------------------------------------------------------------------===//

#ifndef SATB_INTERP_THREADEDCYCLE_H
#define SATB_INTERP_THREADEDCYCLE_H

#include "gc/Pacer.h"
#include "interp/BarrierStats.h"
#include "interp/Interpreter.h"
#include "interp/Safepoint.h"
#include "jit/FastCode.h"
#include "jit/MethodVersionTable.h"

namespace satb {

/// Like runWithConcurrentSatb, but the marker runs on its own thread; the
/// quanta size each hold of the coarse lock. The snapshot oracle is
/// evaluated at the final pause exactly as in the deterministic driver.
ConcurrentRunResult runWithThreadedSatb(Interpreter &I, SatbMarker &M,
                                        Heap &H, MethodId Entry,
                                        const std::vector<int64_t> &IntArgs,
                                        const ConcurrentRunConfig &Cfg);

// --- Multi-mutator driver ---------------------------------------------------

enum class MultiMarkerKind { Satb, IncrementalUpdate };

struct MultiMutatorConfig {
  MultiMarkerKind Marker = MultiMarkerKind::Satb;
  /// Fuel per engine resume: the quantum only sizes the slices the driver
  /// runs each mutator in. A pending pause is served at the engine's next
  /// translated Safepoint poll (or before the first instruction of a
  /// run), never at a slice boundary, which may fall between any two
  /// instructions.
  uint64_t PollQuantum = 512;
  size_t MarkerQuantum = 64;  ///< marker work units per concurrent round
  uint64_t StepLimit = 20'000'000; ///< per mutator
  /// Marking begins once the mutators have allocated this many objects
  /// (or all exited), so the cycle starts against a warm heap.
  uint64_t WarmupAllocs = 2000;
  /// Fixed object-table capacity for the run (Heap::enterMultiMutator).
  uint32_t HeapCapacityRefs = 1u << 20;
  /// Per-context SATB buffer capacity (flush granularity).
  size_t SatbBufferCap = 64;
  /// Mark worker threads (the markers' MarkThreads knob). 1 = the serial
  /// marker on the coordinator, bit-identical to PR 3 behaviour; > 1
  /// spins up a dedicated ThreadPool and both concurrent mark steps and
  /// the final termination drain run over sharded mark stacks (see
  /// DESIGN.md "Parallel marking"). The coordinator participates as one
  /// of the workers.
  unsigned MarkThreads = 1;
  /// Superinstruction fusion for the internal translation (forwarded to
  /// TranslateOptions::Fuse). Defaults to the process-wide default, so
  /// SATB_NO_FUSE reaches the multi-mutator runtime too; tests pin it to
  /// run their grids in both translations.
  bool Fuse = TranslateOptions::fusionDefault();
  /// Test instrumentation: record per-object trace counts (mark-once
  /// property) and, for SATB, the start-of-marking snapshot set into the
  /// result.
  bool DebugTraceCounts = false;
  /// Generational layer: give every mutator nursery TLAB chunks and serve
  /// stop-the-world minor collections from the coordinator whenever a
  /// mutator's chunk refill finds the nursery exhausted. Works under any
  /// barrier mode; only BarrierMode::Generational maintains the remembered
  /// set, so other modes promote wholesale at every minor collection.
  bool EnableNursery = false;
  size_t NurseryBytes = 256 * 1024;
  uint32_t PretenureBytes = 1024;
  /// Tiered execution: when Enabled, every mutator gets its own
  /// MethodVersionTable (tables are not thread-safe) and starts in the
  /// profiling Baseline tier; minor collections invalidate
  /// young-speculating versions inside the same stop-the-world pause
  /// that serves them. Defaults from the SATB_TIERED / SATB_TIER_* /
  /// SATB_DEOPT_EVERY environment, so CI re-runs the whole grid tiered
  /// without touching test code.
  TieredOptions Tiered;
  /// Allocation-pressure pacing (gc/Pacer.h): when Pacer.Enabled the
  /// coordinator loop triggers cycles by the pacer policy instead of the
  /// scripted one (one cycle after WarmupAllocs) — as many cycles as
  /// allocation pressure asks for, each with its own begin/finish
  /// handshakes and per-cycle oracle — and serves proactive nursery-fill
  /// minor collections. Defaults from the SATB_PACER* environment.
  /// DebugTraceCounts forces the scripted policy: the mark-once
  /// instrumentation accumulates across cycles and is only meaningful for
  /// exactly one.
  PacerConfig Pacer;
  /// Server mode: when nonzero, every mutator invokes Entry this many
  /// times (one request per invocation; heap and static state persist
  /// across requests) instead of once, recording each invocation's
  /// latency into a per-mutator histogram shard. StepLimit still bounds
  /// each mutator's total steps across all its requests.
  uint64_t Requests = 0;
};

struct MultiMutatorResult {
  /// SATB: start-of-marking snapshot entirely marked at the final pause.
  /// Incremental update: everything reachable at the final pause marked.
  bool OracleHolds = false;
  uint64_t OracleLive = 0;
  uint64_t Marked = 0;
  size_t FinalPauseWork = 0;
  size_t Swept = 0;
  /// Per-mutator outcomes, indexed by mutator. A Running status means the
  /// per-mutator StepLimit cut the run short.
  std::vector<RunStatus> Statuses;
  std::vector<TrapKind> Traps;
  std::vector<uint64_t> Steps;
  /// Per-thread BarrierStats shards and their fold (BarrierStats::merge).
  std::vector<BarrierStats> Shards;
  BarrierStats Merged;
  uint64_t Violations = 0;       ///< from the merged shards
  /// Young-target elisions that ran on an old base (generational mode),
  /// from the merged shards.
  uint64_t RemSetViolations = 0;
  uint64_t LoggedPreValues = 0;  ///< SATB marker total (exact, lock-counted)
  /// Filled only when Cfg.DebugTraceCounts: TraceCounts[R] is how many
  /// times the marker traced object R (the mark-once property demands
  /// <= 1 everywhere); SnapshotSet is the SATB start-of-marking
  /// reachability bitmap (every snapshot object must have count exactly
  /// 1). SnapshotSet stays empty for the incremental-update marker.
  std::vector<uint32_t> TraceCounts;
  std::vector<bool> SnapshotSet;
  /// Minor-collection totals for the run (zero unless Cfg.EnableNursery).
  MinorGCStats Minor;
  /// Marking cycles completed: 1 under the scripted policy, pacer-driven
  /// otherwise (0 when pressure never reached the trigger).
  uint64_t Cycles = 0;
  PacerStats Pacing; ///< pacer trigger counters (pacer mode only)
  /// Coordinator-side handshake accounting (interp/Safepoint.h): every
  /// stop-the-world pause of the run — cycle edges and minor GCs.
  SafepointPauseStats Safepoint;
  /// Mutator-observed safepoint pauses: each mutator's park() waits,
  /// merged across the per-mutator shards (nanoseconds).
  Histogram MutatorPauseNs;
  /// Server mode only: per-request latencies merged across mutators
  /// (nanoseconds), and completed-request counts per mutator.
  Histogram RequestNs;
  std::vector<uint64_t> RequestsCompleted;
  uint64_t TotalRequests = 0;
};

/// Runs \p Mutators FastInterp instances against one heap with one
/// concurrent marking cycle. Builds the heap, marker, safepoint
/// coordinator, and a safepoint-instrumented translation internally;
/// every mutator executes \p Entry with \p IntArgs. \p CP must be
/// compiled with the barrier mode matching \p Cfg.Marker, and with the
/// rearrangement protocol disabled.
MultiMutatorResult runWithConcurrentMutators(
    unsigned Mutators, const Program &P, const CompiledProgram &CP,
    MethodId Entry, const std::vector<int64_t> &IntArgs = {},
    const MultiMutatorConfig &Cfg = {});

} // namespace satb

#endif // SATB_INTERP_THREADEDCYCLE_H
