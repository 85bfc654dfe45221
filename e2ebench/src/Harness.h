//===- e2ebench/src/Harness.h - Shared benchmark machinery -----*- C++ -*-===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the command
/// line, affinity rotation over the host's vCPUs, the correctness ledger
/// (attempted / failed, by cause), the metric report, and the span tracer
/// that gives per-layer self times in a traced run.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_HARNESS_H
#define E2EBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Self-test hook: perturb every expected value, so each checked
  /// operation must be counted as failed.
  bool CorruptExpected = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string TracePath;
  /// nowNs() at main()'s entry.
  int64_t StartNs = 0;
};

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. Single-threaded work is timed with it,
/// so time the host gives to other tenants' threads is not counted.
int64_t threadCpuNs();

/// Pins the calling thread to each vCPU of the process's allowed set in
/// turn, starting at one the seed picks. The vCPUs of a shared host run
/// at different speeds, so a workload rotates once per block of work:
/// every vCPU is sampled evenly, and no short item pays for a migration.
class CpuRotation {
public:
  explicit CpuRotation(uint64_t Seed);
  void next();
  unsigned allowed() const { return static_cast<unsigned>(Cpus.size()); }
  /// The vCPUs used so far, e.g. "0 1 2 3"; "(unpinned)" marks a failed
  /// pin.
  std::string cpusUsed() const;

private:
  std::vector<int> Cpus;
  size_t Pos;
  std::vector<std::string> Used;
};

/// One operation's checks; the first failing check names the cause.
class Verdict {
public:
  void expect(bool Ok, const char *Cause) {
    if (!Ok && First.empty())
      First = Cause;
  }
  bool ok() const { return First.empty(); }
  const std::string &cause() const { return First; }

private:
  std::string First;
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, uint64_t> FailuresByCause;
  std::vector<Metric> Metrics;
  /// Host shape and run facts, printed before the result line.
  std::vector<std::pair<std::string, std::string>> Info;

  void record(const Verdict &V, uint64_t Ops = 1) {
    Attempted += Ops;
    if (!V.ok()) {
      Failed += Ops;
      FailuresByCause[V.cause()] += Ops;
    }
  }
  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void info(const std::string &Key, const std::string &Value) {
    Info.emplace_back(Key, Value);
  }
  double completedFrac() const {
    return Attempted ? double(Attempted - Failed) / double(Attempted) : 0.0;
  }
};

/// Span recorder for the traced run. Spans nest on one thread; a span's
/// self time is its duration minus its direct children's, accumulated
/// per span name as spans close. The first MaxEvents spans are kept for
/// the Chrome trace file; the aggregates cover every span.
class Tracer {
public:
  void begin(const char *Name) { Open.push_back({Name, nowNs(), 0}); }
  void end();

  /// Self time in nanoseconds of every span named \p Name.
  double selfNs(const std::string &Name) const;
  /// Total self time of every span whose name does not start with
  /// "bench." (the benchmark's own glue).
  double attributedNs() const;
  /// Writes the kept spans as Chrome trace-event JSON.
  bool writeChrome(const std::string &Path,
                   const std::vector<std::pair<std::string, std::string>>
                       &Meta) const;

private:
  struct OpenSpan {
    const char *Name;
    int64_t Start;
    int64_t ChildNs;
  };
  struct Event {
    const char *Name;
    int64_t Start;
    int64_t Dur;
  };
  static constexpr size_t MaxEvents = 200000;
  std::vector<OpenSpan> Open;
  std::vector<Event> Events;
  std::map<std::string, double> Self;
};

/// RAII span; a null tracer records nothing.
class Span {
public:
  Span(Tracer *T, const char *Name) : T(T) {
    if (T)
      T->begin(Name);
  }
  ~Span() {
    if (T)
      T->end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
};

double median(std::vector<double> V);
/// The least of \p V: an operation's time on a shared host. Other
/// tenants only ever add time to single-threaded work, and on the host
/// the benchmark was built on they slow a vCPU by up to 1.8x for seconds
/// at a time, so a median over one run follows the host while the
/// fastest of a few dozen repetitions spread over the run and over every
/// vCPU does not.
inline double fastest(const std::vector<double> &V) {
  return V.empty() ? 0.0 : *std::min_element(V.begin(), V.end());
}
/// The \p P-th percentile of \p V, interpolated between closest ranks.
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);

/// A traced run alternates blocks of untraced and traced units, one unit
/// per vCPU in each block, so both kinds sample every vCPU.
inline bool tracedUnit(int Unit, const CpuRotation &Rot) {
  return (Unit / static_cast<int>(Rot.allowed())) % 2 == 1;
}

/// A run sets up at least MinSetUps times, and until MinSetUpSeconds have
/// passed, before it measures: a set-up takes tens of milliseconds, and
/// its time varies within one run by up to 2x.
constexpr int MinSetUps = 9;
constexpr double MinSetUpSeconds = 1.0;

struct SetUpTime {
  double MedianS = 0; ///< median wall time of one set-up
  int Count = 0;
};

/// Runs a workload's \p SetUp as above, moving to the next vCPU
/// before each; the workload keeps the last result. The first sample
/// counts from main()'s entry, so the process's first-time costs are in
/// it.
SetUpTime timeSetUps(const Options &O, CpuRotation &Rot,
                     const std::function<void()> &SetUp);

/// Peak resident set size in MB since the last resetPeakRss() (the whole
/// process's peak where the kernel cannot reset it). resetPeakRss() first
/// returns free heap memory to the system, so each unit's peak starts
/// from what is live.
double peakRssMb();
void resetPeakRss();

/// Adds the host-shape facts every report carries.
void describeHost(Report &R, const Options &O, const CpuRotation &Rot);

Report runCompile(const Options &O);
Report runBatch(const Options &O);

} // namespace e2e

#endif // E2EBENCH_HARNESS_H
