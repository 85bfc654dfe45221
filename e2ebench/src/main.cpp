//===- e2ebench/src/main.cpp - Benchmark entry point ----------------------===//
///
/// \file
///   e2ebench --workload compile|batch --seed N --seconds S
///            --trace 0|1 [--trace-out PATH] [--corrupt-expected]
///
/// Untraced (--trace 0), prints the end-to-end metrics; traced, the
/// per-layer metrics (a layer a workload does not exercise reads 0).
/// Before the result it prints the host shape, the failures by cause and
/// a table of every metric with its unit; the last line is the result:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

using namespace e2e;

namespace {

/// Every per-layer metric a traced run reports, on every workload.
const Metric PerLayer[] = {
    {"inliner.self_ms", 0, "ms"},
    {"inliner.sites_inlined", 0, "count"},
    {"inliner.bytecodes_out", 0, "count"},
    {"verifier.self_ms", 0, "ms"},
    {"analysis.self_ms", 0, "ms"},
    {"analysis.block_visits", 0, "count"},
    {"analysis.sites", 0, "count"},
    {"analysis.sites_elided", 0, "count"},
    {"analysis.ns_per_bytecode", 0, "ns"},
    {"jit.size_self_ms", 0, "ms"},
    {"jit.translate_self_ms", 0, "ms"},
    {"jit.fast_insts", 0, "count"},
    {"interp.self_ms", 0, "ms"},
    {"interp.init_self_ms", 0, "ms"},
    {"interp.steps", 0, "count"},
    {"interp.ns_per_step", 0, "ns"},
    {"interp.barriers_kept", 0, "count"},
    {"interp.barriers_elided", 0, "count"},
    {"interp.satb_logged", 0, "count"},
    {"heap.init_self_ms", 0, "ms"},
    {"heap.objects_allocated", 0, "count"},
    {"gc.roots_self_ms", 0, "ms"},
    {"gc.cycle_self_ms", 0, "ms"},
    {"gc.marked", 0, "count"},
    {"gc.swept", 0, "count"},
    {"interp.violations", 0, "count"},
    {"trace.attributed_pct", 0, "%"},
    {"trace_overhead_pct", 0, "%"},
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "compile|batch --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH] [--corrupt-expected]\n",
               Msg);
  std::exit(2);
}

Options parse(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(Value().c_str());
    else if (A == "--trace")
      O.Trace = Value() != "0";
    else if (A == "--trace-out")
      O.TracePath = Value();
    else if (A == "--corrupt-expected")
      O.CorruptExpected = true;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (!(O.Seconds > 0 && O.Seconds <= 3600))
    usage("--seconds must be in (0, 3600]");
  return O;
}

double jsonSafe(double V) { return std::isfinite(V) ? V : 0.0; }

} // namespace

int main(int Argc, char **Argv) {
  int64_t StartNs = nowNs();
  Options O = parse(Argc, Argv);
  O.StartNs = StartNs;
  Report R;
  if (O.Workload == "compile")
    R = runCompile(O);
  else if (O.Workload == "batch")
    R = runBatch(O);
  else
    usage("unknown workload");

  if (O.Trace) {
    std::set<std::string> Have;
    for (const Metric &M : R.Metrics)
      Have.insert(M.Name);
    for (const Metric &M : PerLayer)
      if (!Have.count(M.Name))
        R.Metrics.push_back(M);
  }

  std::printf("{\"host\": {");
  for (size_t I = 0; I != R.Info.size(); ++I)
    std::printf("%s\"%s\": \"%s\"", I ? ", " : "", R.Info[I].first.c_str(),
                R.Info[I].second.c_str());
  std::printf("}}\n{\"failures_by_cause\": {");
  size_t K = 0;
  for (const auto &[Cause, N] : R.FailuresByCause)
    std::printf("%s\"%s\": %llu", K++ ? ", " : "", Cause.c_str(),
                static_cast<unsigned long long>(N));
  std::printf("}}\n");
  for (const Metric &M : R.Metrics)
    std::printf("  %-32s %18.6g %s\n", M.Name.c_str(), jsonSafe(M.Value),
                M.Unit.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed == 0 && R.Attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I != R.Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", R.Metrics[I].Name.c_str(),
                jsonSafe(R.Metrics[I].Value), R.Metrics[I].Unit.c_str());
  std::printf("}}\n");
  return 0;
}
