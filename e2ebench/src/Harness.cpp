//===- e2ebench/src/Harness.cpp -------------------------------------------===//

#include "Harness.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

using namespace e2e;

int64_t e2e::threadCpuNs() {
  timespec Ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return int64_t(Ts.tv_sec) * 1000000000 + Ts.tv_nsec;
}

CpuRotation::CpuRotation(uint64_t Seed) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  if (Cpus.empty())
    Cpus.push_back(0);
  Pos = Seed % Cpus.size();
}

void CpuRotation::next() {
  int C = Cpus[Pos];
  Pos = (Pos + 1) % Cpus.size();
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(C, &Set);
  std::string Name = std::to_string(C);
  if (sched_setaffinity(0, sizeof(Set), &Set) != 0)
    Name += "(unpinned)";
  if (std::find(Used.begin(), Used.end(), Name) == Used.end())
    Used.push_back(Name);
}

std::string CpuRotation::cpusUsed() const {
  std::vector<std::string> Sorted = Used;
  std::sort(Sorted.begin(), Sorted.end());
  std::string S;
  for (const std::string &C : Sorted)
    S += (S.empty() ? "" : " ") + C;
  return S;
}

void Tracer::end() {
  OpenSpan S = Open.back();
  Open.pop_back();
  int64_t Dur = nowNs() - S.Start;
  Self[S.Name] += double(Dur - S.ChildNs);
  if (!Open.empty())
    Open.back().ChildNs += Dur;
  if (Events.size() < MaxEvents)
    Events.push_back({S.Name, S.Start, Dur});
}

double Tracer::selfNs(const std::string &Name) const {
  auto It = Self.find(Name);
  return It == Self.end() ? 0.0 : It->second;
}

double Tracer::attributedNs() const {
  double Sum = 0;
  for (const auto &[Name, Ns] : Self)
    if (Name.rfind("bench.", 0) != 0)
      Sum += Ns;
  return Sum;
}

bool Tracer::writeChrome(
    const std::string &Path,
    const std::vector<std::pair<std::string, std::string>> &Meta) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ns\",\"otherData\":{");
  for (size_t I = 0; I != Meta.size(); ++I)
    std::fprintf(F, "%s\"%s\":\"%s\"", I ? "," : "", Meta[I].first.c_str(),
                 Meta[I].second.c_str());
  std::fprintf(F, "},\"traceEvents\":[");
  int64_t Base = Events.empty() ? 0 : Events.front().Start;
  for (const Event &E : Events)
    Base = std::min(Base, E.Start);
  for (size_t I = 0; I != Events.size(); ++I) {
    const Event &E = Events[I];
    std::string Layer(E.Name);
    Layer = Layer.substr(0, Layer.find('.'));
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                 I ? "," : "", E.Name, Layer.c_str(), (E.Start - Base) / 1e3,
                 E.Dur / 1e3);
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

double e2e::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double e2e::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Rank - double(Lo)) * (V[Hi] - V[Lo]);
}

double e2e::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

double e2e::peakRssMb() {
  // VmHWM follows resetPeakRss(); ru_maxrss never resets.
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    long Kb = -1;
    while (std::fgets(Line, sizeof(Line), F))
      if (std::sscanf(Line, "VmHWM: %ld kB", &Kb) == 1)
        break;
    std::fclose(F);
    if (Kb >= 0)
      return double(Kb) / 1024.0;
  }
  rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0.0;
  return double(U.ru_maxrss) / 1024.0; // KiB on Linux
}

void e2e::resetPeakRss() {
  malloc_trim(0);
  // "5" resets the peak RSS to the current RSS (Linux 4.0+).
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

SetUpTime e2e::timeSetUps(const Options &O, CpuRotation &Rot,
                          const std::function<void()> &SetUp) {
  std::vector<double> Seconds;
  const int64_t Begin = nowNs();
  while (Seconds.size() < size_t(MinSetUps) ||
         nowNs() - Begin < int64_t(MinSetUpSeconds * 1e9)) {
    Rot.next();
    int64_t Start = Seconds.empty() ? O.StartNs : nowNs();
    SetUp();
    Seconds.push_back(double(nowNs() - Start) / 1e9);
  }
  return {median(Seconds), static_cast<int>(Seconds.size())};
}

void e2e::describeHost(Report &R, const Options &O, const CpuRotation &Rot) {
  R.info("workload", O.Workload);
  R.info("seed", std::to_string(O.Seed));
  R.info("seconds", std::to_string(O.Seconds));
  R.info("trace", O.Trace ? "1" : "0");
  R.info("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  R.info("allowed_cpus", std::to_string(Rot.allowed()));
  R.info("cpus_used", Rot.cpusUsed());
  R.info("build_type", E2E_BUILD_TYPE);
#ifdef SATB_NO_JUSTIFICATION_CHECK
  R.info("justification_audit", "off");
#else
  R.info("justification_audit", "on");
#endif
}
