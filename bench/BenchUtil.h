//===- bench/BenchUtil.h - Shared bench harness helpers --------*- C++ -*-===//
///
/// \file
/// Helpers shared by the table/figure benches: workload running with
/// instrumentation, wall-clock timing, and environment-variable scale
/// control (SATB_BENCH_SCALE overrides the default transaction count).
///
//===----------------------------------------------------------------------===//

#ifndef SATB_BENCH_BENCHUTIL_H
#define SATB_BENCH_BENCHUTIL_H

#include "interp/FastInterp.h"
#include "interp/Interpreter.h"
#include "support/Stopwatch.h"
#include "workloads/Workload.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#ifndef SATB_BUILD_TYPE
#define SATB_BUILD_TYPE "unknown"
#endif

namespace satb {
namespace bench {

inline int64_t benchScale(int64_t Default) {
  if (const char *Env = std::getenv("SATB_BENCH_SCALE"))
    return std::atoll(Env);
  return Default;
}

/// Which mutator engine the timing benches run. Defaults to the fast
/// engine (the representative substrate for wall-clock numbers; the
/// engines are observable-equivalent, so counter-based tables are
/// unaffected). SATB_BENCH_ENGINE=reference selects the reference
/// interpreter, e.g. to compare dispatch overheads.
inline InterpMode benchEngine() {
  if (const char *Env = std::getenv("SATB_BENCH_ENGINE"))
    if (std::string(Env) == "reference")
      return InterpMode::Reference;
  return InterpMode::Fast;
}

inline const char *engineName(InterpMode M) {
  return M == InterpMode::Fast ? "fast" : "reference";
}

struct WorkloadRun {
  BarrierStats::Summary Stats;
  double WallSeconds = 0.0;
  double CpuSeconds = 0.0;
  uint64_t Steps = 0;
  uint64_t BarrierCostInstrs = 0;
  uint64_t ModeledInstrs = 0;
  RunStatus Status = RunStatus::NotStarted;
  // Compile-side totals across the program's methods.
  double CompileWallUs = 0.0; ///< wall time of the compileProgram call
  double AnalysisUs = 0.0;    ///< summed per-method analysis time
  uint64_t BlocksVisited = 0; ///< summed fixpoint block visits
  uint32_t Sites = 0;         ///< static barrier sites
  uint32_t SitesElided = 0;   ///< static sites proven elidable
};

/// Compiles and runs \p W at \p Scale under the engine selected by
/// Opts.Interp; aborts loudly on traps or elision violations (a bench
/// must not quietly report unsound numbers). The fast engine does not
/// model RISC instruction counts, so ModeledInstrs stays 0 there.
inline WorkloadRun runWorkload(const Workload &W, const CompilerOptions &Opts,
                               int64_t Scale) {
  Stopwatch CompileTimer;
  CompiledProgram CP = compileProgram(*W.P, Opts);
  double CompileWallUs = CompileTimer.elapsedUs();
  Heap H(*W.P);
  WorkloadRun R;
  SatbMarker M(H); // present so always-log modes have a log target
  auto Execute = [&](auto &I) {
    I.attachSatb(&M);
    Stopwatch Timer;
    CpuStopwatch CpuTimer;
    RunStatus S = I.run(W.Entry, {Scale});
    R.WallSeconds = Timer.elapsedUs() / 1e6;
    R.CpuSeconds = CpuTimer.elapsedUs() / 1e6;
    R.Stats = I.stats().summarize();
    R.Steps = I.stepsExecuted();
    R.BarrierCostInstrs = I.barrierCostInstrs();
    R.Status = S;
    if (S != RunStatus::Finished) {
      std::fprintf(stderr, "bench: %s trapped: %s\n", W.Name.c_str(),
                   trapName(I.trap()));
      std::abort();
    }
  };
  if (Opts.Interp == InterpMode::Fast) {
    FastProgram FP = translateProgram(*W.P, CP);
    FastInterp I(FP, CP, H);
    Execute(I);
  } else {
    Interpreter I(*W.P, CP, H);
    Execute(I);
    R.ModeledInstrs = I.modeledInstrsExecuted();
  }
  R.CompileWallUs = CompileWallUs;
  R.AnalysisUs = CP.totalAnalysisTimeUs();
  for (const CompiledMethod &CM : CP.Methods)
    R.BlocksVisited += CM.Analysis.BlockVisits;
  R.Sites = CP.totalBarrierSites();
  R.SitesElided = CP.totalElidedSites();
  if (R.Stats.Violations != 0) {
    std::fprintf(stderr, "bench: %s had %llu elision violations\n",
                 W.Name.c_str(),
                 static_cast<unsigned long long>(R.Stats.Violations));
    std::abort();
  }
  return R;
}

inline void printRule(int Width = 78) {
  for (int I = 0; I != Width; ++I)
    std::fputc('-', stdout);
  std::fputc('\n', stdout);
}

/// Machine-readable bench output, enabled by passing --json (record goes
/// to stdout, replacing the human table is the caller's concern) or by
/// setting SATB_BENCH_JSON=<path> (record is written/appended to <path>;
/// the human table still prints). One JSON object per bench run:
///
///   {"bench": "<name>", "scale": <n>, "hw_threads": <n>,
///    "build_type": "<CMake config>", "rows": [{...}, ...]}
///
/// hw_threads and build_type are the host shape the timings were taken
/// on; documents that differ in it are not like for like.
/// Rows carry string/number fields added via field(); the writer keeps
/// insertion order and handles comma placement. beginObject()/endObject()
/// nest one level of sub-object (histogram percentile blocks) — the
/// schema checker flattens them into dotted keys (tools/
/// check_bench_json.py).
class JsonBench {
public:
  JsonBench(int Argc, char **Argv, std::string BenchName, int64_t Scale)
      : Name(std::move(BenchName)), Scale(Scale) {
    for (int I = 1; I < Argc; ++I)
      if (std::string(Argv[I]) == "--json")
        ToStdout = true;
    if (const char *Env = std::getenv("SATB_BENCH_JSON"))
      Path = Env;
  }

  ~JsonBench() {
    if (!enabled())
      return;
    std::string Doc = "{\"bench\": \"" + Name +
                      "\", \"scale\": " + std::to_string(Scale) +
                      ", \"hw_threads\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ", \"build_type\": \"" SATB_BUILD_TYPE
                      "\", \"rows\": [" +
                      Rows + "]}\n";
    if (ToStdout)
      std::fputs(Doc.c_str(), stdout);
    if (!Path.empty()) {
      if (std::FILE *F = std::fopen(Path.c_str(), "a")) {
        std::fputs(Doc.c_str(), F);
        std::fclose(F);
      } else {
        std::fprintf(stderr, "bench: cannot open %s for JSON output\n",
                     Path.c_str());
      }
    }
  }

  bool enabled() const { return ToStdout || !Path.empty(); }
  /// The human-readable table should be suppressed (pure-JSON stdout).
  bool quiet() const { return ToStdout; }

  void beginRow() {
    if (!enabled())
      return;
    if (!Rows.empty())
      Rows += ", ";
    Rows += "{";
    FirstField = true;
  }
  void endRow() {
    if (enabled())
      Rows += "}";
  }

  void field(const char *Key, const std::string &V) {
    addKey(Key);
    if (!enabled())
      return;
    Rows += '"';
    for (char C : V) {
      if (C == '"' || C == '\\')
        Rows += '\\';
      Rows += C;
    }
    Rows += '"';
  }
  void field(const char *Key, double V) {
    addKey(Key);
    if (!enabled())
      return;
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.2f", V);
    Rows += Buf;
  }
  void field(const char *Key, uint64_t V) {
    addKey(Key);
    if (enabled())
      Rows += std::to_string(V);
  }
  void field(const char *Key, int64_t V) {
    addKey(Key);
    if (enabled())
      Rows += std::to_string(V);
  }
  void field(const char *Key, uint32_t V) { field(Key, uint64_t(V)); }

  /// Opens a nested object value under \p Key; subsequent field() calls
  /// land inside it until endObject(). One level deep only.
  void beginObject(const char *Key) {
    addKey(Key);
    if (!enabled())
      return;
    Rows += "{";
    FirstField = true;
  }
  void endObject() {
    if (!enabled())
      return;
    Rows += "}";
    FirstField = false;
  }

private:
  void addKey(const char *Key) {
    if (!enabled())
      return;
    if (!FirstField)
      Rows += ", ";
    FirstField = false;
    Rows += std::string("\"") + Key + "\": ";
  }

  std::string Name;
  int64_t Scale;
  bool ToStdout = false;
  std::string Path;
  std::string Rows;
  bool FirstField = true;
};

} // namespace bench
} // namespace satb

#endif // SATB_BENCH_BENCHUTIL_H
