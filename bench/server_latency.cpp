//===- bench/server_latency.cpp - Server-shaped latency rows --------------===//
///
/// \file
/// The latency table the ROADMAP's server-workload item asks for: N
/// mutator threads run the request/response workload (workloads/
/// ServerLike.cpp) in per-request mode against one shared heap, with GC
/// cycles triggered by the allocation-pressure pacer (gc/Pacer.h)
/// instead of script order. Per {barrier x marker x tiered} config the
/// row reports requests/sec and steps/sec alongside the p50/p99/p999
/// mutator-observed safepoint-pause and per-request latency percentiles
/// (support/Histogram.h), plus nested stw/ttsp histogram blocks from the
/// coordinator's handshake accounting (interp/Safepoint.h).
///
/// JSON (SATB_BENCH_JSON=BENCH_server.json or --json) carries one row
/// per config and a trailing "all" summary row; CI gates the summary's
/// requests_per_sec (floor) and p99_pause_us (lower-is-better ceiling).
/// Scale = requests per mutator (SATB_BENCH_SCALE).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "interp/ThreadedCycle.h"

using namespace satb;
using namespace satb::bench;

namespace {

constexpr unsigned Mutators = 4;

struct ServerConfig {
  const char *Name;
  BarrierMode Barrier;
  MultiMarkerKind Marker;
  bool Nursery;
  bool Tiered;
};

struct ServerRun {
  double WallSeconds = 0.0;
  uint64_t Requests = 0;
  uint64_t Steps = 0;
  uint64_t Cycles = 0;
  uint64_t MinorGCs = 0;
  Histogram PauseNs;   ///< mutator-observed park waits
  Histogram RequestNs; ///< per-request latencies
  Histogram StwNs;     ///< coordinator pause work windows
  Histogram TtspNs;    ///< coordinator time-to-stop
};

double us(uint64_t Ns) { return Ns / 1000.0; }

ServerRun runConfig(const ServerConfig &C, int64_t RequestsPerMutator) {
  Workload W = makeServerLike();
  CompilerOptions Opts;
  Opts.Interp = InterpMode::Fast;
  Opts.Barrier = C.Barrier;
  CompiledProgram CP = compileProgram(*W.P, Opts);

  MultiMutatorConfig Cfg;
  Cfg.Marker = C.Marker;
  Cfg.Requests = static_cast<uint64_t>(RequestsPerMutator);
  Cfg.Pacer.Enabled = true;
  Cfg.Pacer.TriggerBytes = 96 * 1024;
  Cfg.EnableNursery = C.Nursery;
  Cfg.NurseryBytes = 128 * 1024;
  Cfg.Tiered.Enabled = C.Tiered;

  Stopwatch Wall;
  MultiMutatorResult R =
      runWithConcurrentMutators(Mutators, *W.P, CP, W.Entry, {1}, Cfg);
  ServerRun S;
  S.WallSeconds = Wall.elapsedUs() / 1e6;

  if (!R.OracleHolds || R.Violations != 0) {
    std::fprintf(stderr, "bench: %s broke the marking oracle (%llu violations)\n",
                 C.Name, static_cast<unsigned long long>(R.Violations));
    std::abort();
  }
  if (R.RemSetViolations != 0) {
    std::fprintf(stderr,
                 "bench: %s broke the remembered set (%llu violations)\n",
                 C.Name, static_cast<unsigned long long>(R.RemSetViolations));
    std::abort();
  }
  for (unsigned T = 0; T != Mutators; ++T) {
    if (R.Statuses[T] != RunStatus::Finished) {
      std::fprintf(stderr, "bench: %s mutator %u did not finish (%llu/%llu "
                           "requests)\n",
                   C.Name, T,
                   static_cast<unsigned long long>(R.RequestsCompleted[T]),
                   static_cast<unsigned long long>(RequestsPerMutator));
      std::abort();
    }
    S.Steps += R.Steps[T];
  }
  if (R.TotalRequests !=
      static_cast<uint64_t>(RequestsPerMutator) * Mutators) {
    std::fprintf(stderr, "bench: %s dropped requests\n", C.Name);
    std::abort();
  }
  S.Requests = R.TotalRequests;
  S.Cycles = R.Cycles;
  S.MinorGCs = R.Minor.Collections;
  S.PauseNs = R.MutatorPauseNs;
  S.RequestNs = R.RequestNs;
  S.StwNs = R.Safepoint.PauseNs;
  S.TtspNs = R.Safepoint.TimeToStopNs;
  return S;
}

void emitHistogram(JsonBench &Json, const char *Key, const Histogram &H) {
  Json.beginObject(Key);
  Json.field("count", H.count());
  Json.field("p50_us", us(H.percentile(50)));
  Json.field("p99_us", us(H.percentile(99)));
  Json.field("p999_us", us(H.percentile(99.9)));
  Json.field("max_us", us(H.max()));
  Json.endObject();
}

void emitRow(JsonBench &Json, const char *Name, const ServerRun &S) {
  Json.beginRow();
  Json.field("config", std::string(Name));
  Json.field("mutators", uint64_t(Mutators));
  Json.field("requests", S.Requests);
  Json.field("requests_per_sec",
             S.WallSeconds > 0.0 ? S.Requests / S.WallSeconds : 0.0);
  Json.field("steps", S.Steps);
  Json.field("steps_per_sec",
             S.WallSeconds > 0.0 ? S.Steps / S.WallSeconds : 0.0);
  Json.field("cycles", S.Cycles);
  Json.field("minor_gcs", S.MinorGCs);
  Json.field("pauses", S.PauseNs.count());
  Json.field("p50_pause_us", us(S.PauseNs.percentile(50)));
  Json.field("p99_pause_us", us(S.PauseNs.percentile(99)));
  Json.field("p999_pause_us", us(S.PauseNs.percentile(99.9)));
  Json.field("max_pause_us", us(S.PauseNs.max()));
  Json.field("p50_req_us", us(S.RequestNs.percentile(50)));
  Json.field("p99_req_us", us(S.RequestNs.percentile(99)));
  Json.field("p999_req_us", us(S.RequestNs.percentile(99.9)));
  emitHistogram(Json, "stw", S.StwNs);
  emitHistogram(Json, "ttsp", S.TtspNs);
  Json.endRow();
}

} // namespace

int main(int argc, char **argv) {
  int64_t Scale = benchScale(2000); // requests per mutator
  JsonBench Json(argc, argv, "server_latency", Scale);

  const ServerConfig Configs[] = {
      {"satb", BarrierMode::Satb, MultiMarkerKind::Satb, false, false},
      {"incupdate", BarrierMode::CardMarking,
       MultiMarkerKind::IncrementalUpdate, false, false},
      {"generational", BarrierMode::Generational, MultiMarkerKind::Satb, true,
       false},
      {"satb_tiered", BarrierMode::Satb, MultiMarkerKind::Satb, false, true},
  };

  if (!Json.quiet()) {
    std::printf("Server latency: %u mutators, %lld requests each, "
                "pacer-driven cycles\n",
                Mutators, static_cast<long long>(Scale));
    printRule();
    std::printf("%12s %9s %7s %6s %9s %9s %9s %9s %9s\n", "config", "req/s",
                "cycles", "minor", "p50 rq", "p99 rq", "p50 pse", "p99 pse",
                "p999 pse");
    printRule();
  }

  ServerRun All;
  for (const ServerConfig &C : Configs) {
    ServerRun S = runConfig(C, Scale);
    if (!Json.quiet())
      std::printf("%12s %9.0f %7llu %6llu %9.1f %9.1f %9.1f %9.1f %9.1f\n",
                  C.Name, S.Requests / S.WallSeconds,
                  static_cast<unsigned long long>(S.Cycles),
                  static_cast<unsigned long long>(S.MinorGCs),
                  us(S.RequestNs.percentile(50)),
                  us(S.RequestNs.percentile(99)),
                  us(S.PauseNs.percentile(50)), us(S.PauseNs.percentile(99)),
                  us(S.PauseNs.percentile(99.9)));
    emitRow(Json, C.Name, S);
    All.WallSeconds += S.WallSeconds;
    All.Requests += S.Requests;
    All.Steps += S.Steps;
    All.Cycles += S.Cycles;
    All.MinorGCs += S.MinorGCs;
    All.PauseNs.merge(S.PauseNs);
    All.RequestNs.merge(S.RequestNs);
    All.StwNs.merge(S.StwNs);
    All.TtspNs.merge(S.TtspNs);
  }

  if (!Json.quiet()) {
    printRule();
    std::printf("%12s %9.0f %7llu %6llu %9.1f %9.1f %9.1f %9.1f %9.1f\n",
                "all", All.Requests / All.WallSeconds,
                static_cast<unsigned long long>(All.Cycles),
                static_cast<unsigned long long>(All.MinorGCs),
                us(All.RequestNs.percentile(50)),
                us(All.RequestNs.percentile(99)),
                us(All.PauseNs.percentile(50)), us(All.PauseNs.percentile(99)),
                us(All.PauseNs.percentile(99.9)));
    std::printf("%llu stop-the-world pauses across %llu requests; "
                "coordinator stw p99 %.1f us, ttsp p99 %.1f us\n",
                static_cast<unsigned long long>(All.StwNs.count()),
                static_cast<unsigned long long>(All.Requests),
                us(All.StwNs.percentile(99)), us(All.TtspNs.percentile(99)));
  }
  emitRow(Json, "all", All);
  return 0;
}
