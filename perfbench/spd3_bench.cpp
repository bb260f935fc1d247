//===- perfbench/spd3_bench.cpp - The repository benchmark ----------------===//
//
// Part of the SPD3 reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// One process runs one workload for a fixed wall budget and prints its
// metrics as the last line of stdout (one JSON object). run.py builds this
// binary and calls it; README.md in this directory documents the
// workloads, the metrics and which layer each one watches.
//
//   spd3_bench --workload dense-scalar|dense-range|service --seed N
//              --seconds S --trace 0|1 [--size tiny|full]
//              [--spans PATH] [--wrong-verdict]
//
// --trace 0 measures the end-to-end metrics with nothing but the detector
// installed. --trace 1 interleaves untraced executions with executions
// under TracingTool and prints the per-layer metrics. --size tiny shrinks
// every input for the self-test. --wrong-verdict makes the harness
// disbelieve every seeded-race verdict, which must show as failures.
//
// Only public API is driven: kernels::Kernel::execute, the auto-
// instrumented twin, rt::Runtime, detector::Spd3Tool, stats::lookup and
// Tool::peakMemoryBytes. Nothing inside the program is instrumented.
//
//===----------------------------------------------------------------------===//

#include "TracingTool.h"

#include "AutoKernels.h"
#include "detector/Spd3Tool.h"
#include "detector/Tracked.h"
#include "kernels/Kernel.h"
#include "runtime/Runtime.h"
#include "support/Numa.h"
#include "support/Simd.h"
#include "support/Stats.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

extern char **environ;

using namespace spd3;
using perfbench::Ev;
using perfbench::kNumEv;
using perfbench::nowNs;
using perfbench::TracingTool;

namespace {

//===----------------------------------------------------------------------===//
// Small statistics helpers.
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Linear-interpolated quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double F = Pos - static_cast<double>(Lo);
  return V[Lo] + F * (V[Hi] - V[Lo]);
}

/// The time a sample takes at the host's usual speed. Disturbances on the
/// shared host fall on one side of it, and the share of a run they cover
/// varies from run to run, which moves a median. One worker runs up to
/// 1.7x faster in bursts that come and go over tens of seconds, so its
/// upper quartile stays at the usual speed; N workers on N CPUs stall
/// whenever anything else gets a CPU, so their lower quartile does. A
/// slower program moves every sample, and either quartile with them.
double usualTime(std::vector<double> V, unsigned Workers) {
  return quantile(std::move(V), Workers == 1 ? 0.75 : 0.25);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double L = 0.0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / static_cast<double>(V.size()));
}

double secondsSince(uint64_t T0) {
  return static_cast<double>(nowNs() - T0) * 1e-9;
}

/// Median cost of one steady_clock read: the bias every timed span
/// carries on top of the call it brackets.
double clockOverheadNs() {
  std::vector<double> D;
  for (int I = 0; I < 10001; ++I) {
    uint64_t A = nowNs();
    uint64_t B = nowNs();
    D.push_back(static_cast<double>(B - A));
  }
  std::nth_element(D.begin(), D.begin() + D.size() / 2, D.end());
  return D[D.size() / 2];
}

double mb(size_t Bytes) { return static_cast<double>(Bytes) / 1048576.0; }

uint64_t stat(const char *Group, const char *Name) {
  Statistic *S = stats::lookup(Group, Name);
  return S ? S->value() : 0;
}

/// Process peak resident set (VmHWM) in bytes; 0 without /proc.
size_t vmHwmBytes() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  size_t KiB = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %zu", &KiB) == 1)
      break;
  std::fclose(F);
  return KiB * 1024;
}

unsigned nproc() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return 1;
}

//===----------------------------------------------------------------------===//
// Guards: refuse to time a program that an override or the build changed.
//===----------------------------------------------------------------------===//

/// Names of set environment variables that change the measured program.
std::vector<std::string> programOverrides() {
  static const char *const Exact[] = {
      "SPD3_SIMD",     "SPD3_SPLIT_GRANULES",  "SPD3_STEP_FILTER",
      "SPD3_SAMPLING", "SPD3_OVERHEAD_BUDGET", "SPD3_NUMA"};
  std::vector<std::string> Found;
  for (char **E = environ; E && *E; ++E) {
    std::string Var(*E);
    std::string Name = Var.substr(0, Var.find('='));
    bool Hit = Name.rfind("SPD3_TRACE", 0) == 0;
    for (const char *X : Exact)
      Hit |= Name == X;
    if (Hit)
      Found.push_back(Name);
  }
  return Found;
}

/// Why this build may not be timed; empty when it may.
std::string buildProblem() {
#if SPD3_BENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) ||                 \
    defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif !defined(__OPTIMIZE__)
  return "unoptimised build";
#else
  std::string BT = SPD3_BENCH_BUILD_TYPE;
  if (BT == "Debug")
    return "Debug build";
  return "";
#endif
}

//===----------------------------------------------------------------------===//
// Operation ledger: every correctness check is one attempted operation.
//===----------------------------------------------------------------------===//

struct Ledger {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;

  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(What);
  }
};

//===----------------------------------------------------------------------===//
// One execution: detector construction, the runtime, and the timed call.
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;
  bool WrongVerdict = false;
  std::string SpansPath;
};

/// Detector configuration of one execution.
enum class Det { None, Spd3, Spd3Reclaim };

std::unique_ptr<detector::Spd3Tool> makeDetector(Det D,
                                                 detector::RaceSink &Sink) {
  if (D == Det::None)
    return nullptr;
  detector::Spd3Options O; // the defaults are what users run
  O.Reclaim = D == Det::Spd3Reclaim;
  return std::make_unique<detector::Spd3Tool>(Sink, O);
}

/// A kernel execution or a request: the parent of the tool-call spans
/// recorded while it ran.
struct RootSpan {
  uint64_t Id;
  uint64_t Start;
  uint64_t End;
  const char *Name;
};

/// What one execution reports back to the ledger and the metrics.
struct Exec {
  double Seconds = 0;      ///< timed part (kernel or request stream)
  double SetupSeconds = 0; ///< service: detector, workers, session table
  bool Verified = true;    ///< kernel self-check or every request fold
  double Checksum = 0;
  size_t Races = 0;
  size_t PeakToolBytes = 0;
  std::string Error;
  std::vector<double> LatencyUs; ///< service only: per request
  std::vector<RootSpan> Roots;   ///< traced executions only
};

/// How a traced execution samples, and where its results go.
struct TraceHook {
  /// Memory events are millions per pass; the others are thousands.
  unsigned MemEvery = 256;
  unsigned OtherEvery = 16;
  std::function<void(TracingTool &, const Exec &)> Harvest;
};

/// The detector of one execution, the tracer around it when the run is
/// traced, and the tool the runtime installs.
struct Instrumentation {
  detector::RaceSink Sink{detector::RaceSink::Mode::CollectPerLocation};
  std::unique_ptr<detector::Spd3Tool> Tool;
  std::unique_ptr<TracingTool> Tracer;

  Instrumentation(Det D, const TraceHook *Trace)
      : Tool(makeDetector(D, Sink)) {
    if (Trace && Tool)
      Tracer = std::make_unique<TracingTool>(*Tool, Trace->MemEvery,
                                             Trace->OtherEvery);
  }
  detector::Tool *active() const {
    return Tracer ? static_cast<detector::Tool *>(Tracer.get()) : Tool.get();
  }
};

using KernelFn = std::function<kernels::KernelResult(
    rt::Runtime &, const kernels::KernelConfig &)>;

uint64_t NextExecId = 1;

/// Run one kernel once on \p Workers workers under detector \p D.
Exec runKernel(const KernelFn &Fn, kernels::KernelConfig Cfg, unsigned Workers,
               Det D, TraceHook *Trace) {
  Exec X;
  Instrumentation In(D, Trace);
  if (In.Tracer)
    In.Tracer->setParent(NextExecId);
  rt::Runtime RT({Workers, rt::SchedulerKind::Parallel, In.active()});
  uint64_t T1 = nowNs();
  kernels::KernelResult R = Fn(RT, Cfg);
  uint64_t T2 = nowNs();
  X.Seconds = static_cast<double>(T2 - T1) * 1e-9;
  X.Verified = R.Verified;
  X.Checksum = R.Checksum;
  X.Error = R.Error;
  X.Races = In.Sink.raceCount();
  X.PeakToolBytes = In.Tool ? In.Tool->peakMemoryBytes() : 0;
  if (In.Tracer) {
    X.Roots.push_back({NextExecId++, T1, T2, "execution"});
    Trace->Harvest(*In.Tracer, X);
  }
  return X;
}

//===----------------------------------------------------------------------===//
// The service: a closed loop with one client serving short requests.
//===----------------------------------------------------------------------===//

struct ServiceShape {
  size_t Requests; ///< per stream (one timed execution)
  size_t Items;    ///< scratch elements and asyncs per request
  size_t Sessions; ///< persistent session table slots
};

/// Deterministic request payload from the seed.
double payload(uint64_t Seed, size_t Req, size_t Item) {
  uint64_t H = Seed * 0x9e3779b97f4a7c15ULL + Req * 0xbf58476d1ce4e5b9ULL +
               Item * 0x94d049bb133111ebULL;
  H ^= H >> 31;
  H *= 0xd6e8feb86659fd93ULL;
  H ^= H >> 29;
  return static_cast<double>(H % 1000) * 1e-3;
}

/// Serve \p Shape.Requests requests on a fresh detector and runtime.
/// Request \p RacyReq (if < Requests) carries a seeded write-write race
/// between two of its tasks; both write the same value, so its fold stays
/// correct and only the detector can tell. \p Latency records every
/// request's latency.
Exec runService(const ServiceShape &Shape, uint64_t Seed, unsigned Workers,
                Det D, TraceHook *Trace, size_t RacyReq, bool Latency) {
  Exec X;
  uint64_t T0 = nowNs();
  Instrumentation In(D, Trace);
  TracingTool *Tracer = In.Tracer.get();
  detector::Spd3Tool *Tool = In.Tool.get();
  rt::Runtime RT({Workers, rt::SchedulerKind::Parallel, In.active()});
  const size_t W = Shape.Items;
  std::vector<double> Expected(Shape.Sessions, 0.0);
  std::vector<double> Got(Shape.Sessions, 0.0);
  if (Latency)
    X.LatencyUs.reserve(Shape.Requests);
  bool FoldsOk = true;
  uint64_t TServe = 0;
  size_t Peak = 0;
  RT.run([&] {
    detector::TrackedArray<double> Sessions(Shape.Sessions);
    for (size_t S = 0; S < Shape.Sessions; ++S)
      Sessions.set(S, 0.0);
    X.SetupSeconds = secondsSince(T0);
    TServe = nowNs();
    for (size_t Req = 0; Req < Shape.Requests; ++Req) {
      double Want = 0.0;
      for (size_t I = 0; I < W; ++I)
        Want += payload(Seed, Req, I);
      if (Tracer)
        Tracer->setParent(NextExecId + Req);
      uint64_t Q0 = nowNs();
      double Sum = 0.0;
      {
        // Scratch: W results plus the request header read by every task.
        detector::TrackedArray<double> Scratch(W + 1);
        Scratch.set(W, static_cast<double>(Req));
        bool Racy = Req == RacyReq;
        rt::finish([&] {
          for (size_t I = 0; I < W; ++I)
            rt::async([&Scratch, Seed, W, I, Racy] {
              size_t Key = static_cast<size_t>(Scratch.get(W));
              Scratch.set(I, payload(Seed, Key, I));
              if (Racy && I == W - 1)
                Scratch.set(0, payload(Seed, Key, 0));
            });
        });
        const double *P = Scratch.readRun(0, W);
        for (size_t I = 0; I < W; ++I)
          Sum += P[I];
        size_t S = Req % Shape.Sessions;
        Sessions.set(S, Sessions.get(S) + Sum);
      }
      uint64_t Q1 = nowNs();
      if (Latency)
        X.LatencyUs.push_back(static_cast<double>(Q1 - Q0) * 1e-3);
      if (Tracer)
        X.Roots.push_back({NextExecId + Req, Q0, Q1, "request"});
      FoldsOk &= Sum == Want;
      Expected[Req % Shape.Sessions] += Want;
      if (Tool && (Req & 255) == 0)
        Peak = std::max(Peak, Tool->memoryBytes());
    }
    const double *Acc = Sessions.readRun(0, Shape.Sessions);
    for (size_t S = 0; S < Shape.Sessions; ++S)
      Got[S] = Acc[S];
  });
  X.Seconds = secondsSince(TServe);
  for (size_t S = 0; S < Shape.Sessions; ++S)
    FoldsOk &= Got[S] == Expected[S];
  X.Verified = FoldsOk;
  if (!FoldsOk)
    X.Error = "request fold or session table mismatch";
  for (double G : Got)
    X.Checksum += G;
  X.Races = In.Sink.raceCount();
  if (Tool)
    X.PeakToolBytes = std::max(Peak, Tool->memoryBytes());
  if (Tracer) {
    Trace->Harvest(*Tracer, X);
    NextExecId += Shape.Requests;
  }
  return X;
}

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

struct Unit {
  std::string Name;
  KernelFn Fn;
  /// Input size at full scale (tiny runs use SizeClass::Test).
  kernels::SizeClass Size;
};

std::vector<Unit> denseUnits(const std::string &Workload) {
  using kernels::SizeClass;
  auto K = [](const char *Name, SizeClass Size) -> Unit {
    kernels::Kernel *Kn = kernels::findKernel(Name);
    return {Name,
            [Kn](rt::Runtime &RT, const kernels::KernelConfig &C) {
              return Kn->execute(RT, C);
            },
            Size};
  };
  // Sizes keep one instrumented execution between ~50 and ~500 ms on a
  // 4-core host: lufact at `large` takes seconds per execution, and matmul
  // at `default` has a sub-millisecond uninstrumented base.
  if (Workload == "dense-scalar")
    return {K("lufact", SizeClass::Default), K("sor", SizeClass::Default),
            K("moldyn", SizeClass::Default)};
  if (Workload == "dense-range")
    return {K("matmul", SizeClass::Large), K("crypt", SizeClass::Default),
            {"crypt-auto",
             [](rt::Runtime &RT, const kernels::KernelConfig &C) {
               return autokernels::cryptAuto(RT, C);
             },
             SizeClass::Default}};
  return {};
}

/// The unit of a service run, shaped like a kernel so both share the
/// interleaved measurement loop.
struct Measured {
  std::string Name;
  std::function<Exec(unsigned Workers, Det D, TraceHook *T)> Run;
};

//===----------------------------------------------------------------------===//
// Per-layer aggregation for the traced run.
//===----------------------------------------------------------------------===//

/// Everything the traced executions of one worker count accumulate.
struct LayerAcc {
  std::array<std::vector<double>, kNumEv> SpanNs; ///< sampled durations
  TracingTool::Totals Tot;
  double TimedNs[kNumEv] = {}; ///< timed calls, clock cost subtracted
  std::map<std::string, uint64_t> Counters; ///< "group.name" -> total
  double TracedWall = 0;                    ///< sum of traced executions
  unsigned Passes = 0;                      ///< traced passes accumulated
};

const std::pair<const char *, const char *> kCounters[] = {
    {"runtime", "tasksSpawned"},     {"runtime", "steals"},
    {"runtime", "finishScopes"},     {"spd3", "memActions"},
    {"spd3", "snapshotRetries"},     {"spd3", "casRetries"},
    {"spd3", "checkCacheHits"},      {"spd3", "noUpdateActions"},
    {"spd3", "dmhpMemoHits"},        {"spd3", "rangeEvents"},
    {"spd3", "rangeElems"},          {"spd3", "rangeComputeReuse"},
    {"spd3", "rangeCacheHits"},      {"spd3", "stepFilterHits"},
    {"spd3", "primaryExhausted"},    {"dpst", "dmhpQueries"},
    {"dpst", "lcaHops"},             {"dpst", "labelDmhpHits"},
    {"dpst", "labelDmhpFallbacks"},  {"shadow", "rangeCells"},
    {"shadow", "primaryCells"},      {"shadow", "splitGranules"},
    {"shadow", "fallbackCells"},     {"shadow", "rangeCellsReclaimed"},
    {"shadow", "primaryPagesRecycled"}, {"reclaim", "epochAdvances"},
    {"reclaim", "subtreesRetired"},  {"reclaim", "nodesRetired"},
    {"reclaim", "retiredBytes"},     {"reclaim", "freedBytes"},
    {"obs", "eventsEmitted"}};

//===----------------------------------------------------------------------===//
// The JSON result.
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

void printResult(const Ledger &L, const std::vector<Metric> &Ms) {
  std::string Out = "{\"correct\": ";
  Out += L.Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(L.Attempted);
  Out += ", \"failed\": " + std::to_string(L.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + Ms[I].Name + "\": {\"value\": " + jsonNumber(Ms[I].Value) +
           ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// The benchmark.
//===----------------------------------------------------------------------===//

class Bench {
public:
  explicit Bench(Options O) : Opt(std::move(O)) {
    N = std::min(4u, nproc());
    Ws = N > 1 ? std::vector<unsigned>{1, N} : std::vector<unsigned>{1};
  }

  int run();

private:
  bool isService() const { return Opt.Workload == "service"; }
  std::vector<Measured> measuredUnits();
  void correctnessChecks(const std::vector<Unit> &Units);
  void serviceCorrectnessChecks();
  void checkTimed(const std::string &What, const Exec &X, Det D);
  double setupOnce();
  double timedSample(const Measured &M, unsigned W, Det D);
  void timedLoop(const std::vector<Measured> &Ms);
  void tracedLoop(const std::vector<Measured> &Ms);
  std::vector<Metric> endToEndMetrics(const std::vector<Measured> &Ms);
  std::vector<Metric> perLayerMetrics(const std::vector<Measured> &Ms);
  void harvest(unsigned W, TracingTool &T, const Exec &X);
  void writeSpans();
  /// The detector every timed execution checks with.
  Det checked() const { return isService() ? Det::Spd3Reclaim : Det::Spd3; }

  kernels::KernelConfig config(const Unit &U, bool Verify,
                               bool SeedRace) const {
    kernels::KernelConfig C;
    C.Size = Opt.Tiny ? kernels::SizeClass::Test : U.Size;
    C.Var = kernels::Variant::FineGrained;
    C.Seed = Opt.Seed;
    C.Verify = Verify;
    C.SeedRace = SeedRace;
    return C;
  }
  ServiceShape shape() const {
    // Items and sessions per request are request_server's (kernels/
    // RequestServer.cpp): its `test` sizes for tiny runs, its `default`
    // sizes otherwise. >= 1000 requests per stream: ten or more samples
    // beyond p99.
    return Opt.Tiny ? ServiceShape{1000, 8, 4} : ServiceShape{2000, 64, 16};
  }

  Options Opt;
  unsigned N = 1;
  std::vector<unsigned> Ws;
  Ledger L;
  std::map<std::string, double> RefChecksum;
  std::vector<double> SetupSeconds; ///< set-ups spread over the rounds
  size_t PeakTool = 0;

  /// Timed samples, indexed [unit][worker-count index].
  struct Series {
    std::vector<double> Base, Check, Ratio;
  };
  std::vector<std::vector<Series>> S;
  /// Per unit: request (or execution) latencies at N workers.
  std::map<std::string, std::vector<double>> LatencyUs;
  /// Service: each stream's own p50 and p99. A few slow streams move a
  /// pooled tail quantile; a quartile of the per-stream ones is steadier.
  std::vector<double> StreamP50, StreamP99;

  /// Traced run: untraced/traced pairs and the per-layer accumulators.
  std::vector<std::vector<Series>> TS;
  std::map<unsigned, LayerAcc> Acc;
  double ClockNs = 0; ///< subtracted from every span duration
  std::vector<perfbench::Span> KeptSpans;
  std::vector<RootSpan> KeptRoots;
  uint64_t DroppedSpans = 0;
};

std::vector<Measured> Bench::measuredUnits() {
  std::vector<Measured> Ms;
  if (isService()) {
    ServiceShape Sh = shape();
    uint64_t Seed = Opt.Seed;
    Ms.push_back({"service", [this, Sh, Seed](unsigned W, Det D,
                                              TraceHook *T) {
                    bool Lat = D != Det::None && W == N;
                    return runService(Sh, Seed, W, D, T, SIZE_MAX, Lat);
                  }});
    return Ms;
  }
  for (Unit &U : denseUnits(Opt.Workload)) {
    KernelFn Fn = U.Fn;
    kernels::KernelConfig Cfg = config(U, /*Verify=*/false, /*SeedRace=*/false);
    Ms.push_back({U.Name, [Fn, Cfg](unsigned W, Det D, TraceHook *T) {
                    return runKernel(Fn, Cfg, W, D, T);
                  }});
  }
  return Ms;
}

void Bench::correctnessChecks(const std::vector<Unit> &Units) {
  for (const Unit &U : Units) {
    // (a) The instrumented program computes the sequential reference.
    Exec V = runKernel(U.Fn, config(U, true, false), N, Det::Spd3, nullptr);
    L.check(V.Verified, U.Name + ": verify failed: " + V.Error);
    L.check(V.Races == 0, U.Name + ": race reported on race-free verify run");
    RefChecksum[U.Name] = V.Checksum;
    PeakTool = std::max(PeakTool, V.PeakToolBytes);
    // (c) The seeded race is reported.
    Exec R = runKernel(U.Fn, config(U, false, true), N, Det::Spd3, nullptr);
    size_t Seen = Opt.WrongVerdict ? 0 : R.Races;
    L.check(Seen > 0, U.Name + ": seeded race not reported");
  }
}

void Bench::serviceCorrectnessChecks() {
  ServiceShape Sh = shape();
  Sh.Requests = 256;
  size_t Racy = Opt.Seed % Sh.Requests;
  // A race-free stream: every fold right, no race reported.
  Exec Clean =
      runService(Sh, Opt.Seed, N, Det::Spd3Reclaim, nullptr, SIZE_MAX, false);
  L.check(Clean.Verified, "service: " + Clean.Error);
  L.check(Clean.Races == 0, "service: race reported on race-free stream");
  // One request carries the seeded race: folds still right, race seen.
  Exec R = runService(Sh, Opt.Seed, N, Det::Spd3Reclaim, nullptr, Racy, false);
  L.check(R.Verified, "service (seeded): " + R.Error);
  size_t Seen = Opt.WrongVerdict ? 0 : R.Races;
  L.check(Seen > 0, "service: seeded race not reported");
}

/// (b) A timed execution must compute the verified answer and, being
/// race-free, report no race.
void Bench::checkTimed(const std::string &What, const Exec &X, Det D) {
  bool Ok = X.Verified;
  if (!isService()) {
    auto It = RefChecksum.find(What);
    Ok &= It != RefChecksum.end() &&
          kernels::detail::closeEnough(X.Checksum, It->second, 1e-9);
  }
  L.check(Ok, What + ": output differs from the verified run");
  if (D != Det::None)
    L.check(X.Races == 0, What + ": false positive on a race-free run");
}

double Bench::setupOnce() {
  // From detector construction until the root task starts, by which time
  // the runtime has launched its workers (and, for the service, the
  // session table is registered and filled).
  if (isService()) {
    ServiceShape Sh = shape();
    Sh.Requests = 0;
    return runService(Sh, Opt.Seed, N, checked(), nullptr, SIZE_MAX, false)
        .SetupSeconds;
  }
  uint64_t T0 = nowNs();
  Instrumentation In(checked(), nullptr);
  rt::Runtime RT({N, rt::SchedulerKind::Parallel, In.active()});
  double Setup = 0;
  RT.run([&] { Setup = secondsSince(T0); });
  return Setup;
}

/// One timed sample lasts at least this long, repeating short executions:
/// on a shared host a CPU switches between fast and slow phases every few
/// milliseconds, and a sample that spans many phases is unimodal.
constexpr double kMinSampleSeconds = 0.05;

/// Mean seconds per call of \p Fn, called until kMinSampleSeconds pass.
template <class Fn> double sampleSeconds(Fn &&F) {
  double Sum = 0;
  unsigned Calls = 0;
  do {
    Sum += F();
    ++Calls;
  } while (Sum < kMinSampleSeconds);
  return Sum / Calls;
}

double Bench::timedSample(const Measured &M, unsigned W, Det D) {
  return sampleSeconds([&] {
    Exec X = M.Run(W, D, nullptr);
    checkTimed(M.Name, X, D);
    if (D == Det::None)
      return X.Seconds;
    PeakTool = std::max(PeakTool, X.PeakToolBytes);
    if (W == N) {
      std::vector<double> &Lat = LatencyUs[M.Name];
      if (isService()) {
        Lat.insert(Lat.end(), X.LatencyUs.begin(), X.LatencyUs.end());
        StreamP50.push_back(quantile(X.LatencyUs, 0.50));
        StreamP99.push_back(quantile(X.LatencyUs, 0.99));
      } else {
        Lat.push_back(X.Seconds * 1e6);
      }
    }
    return X.Seconds;
  });
}

void Bench::timedLoop(const std::vector<Measured> &Ms) {
  S.assign(Ms.size(), std::vector<Series>(Ws.size()));
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(Opt.Seconds * 1e9);
  const unsigned MinRounds = 3;
  // Set-ups are spread over the rounds, so that their median sees the
  // whole run rather than one moment of it.
  const unsigned SetupsPerRound = 20;
  for (unsigned Round = 0; Round < MinRounds || nowNs() < Deadline; ++Round) {
    for (unsigned I = 0; I < SetupsPerRound; ++I)
      SetupSeconds.push_back(setupOnce());
    for (size_t U = 0; U < Ms.size(); ++U)
      for (size_t WI = 0; WI < Ws.size(); ++WI) {
        unsigned W = Ws[WI];
        // Interleave, alternating which side goes first.
        double B, C;
        if (Round % 2) {
          C = timedSample(Ms[U], W, checked());
          B = timedSample(Ms[U], W, Det::None);
        } else {
          B = timedSample(Ms[U], W, Det::None);
          C = timedSample(Ms[U], W, checked());
        }
        Series &Sr = S[U][WI];
        Sr.Base.push_back(B);
        Sr.Check.push_back(C);
        Sr.Ratio.push_back(C / B);
      }
  }
}

void Bench::harvest(unsigned W, TracingTool &T, const Exec &X) {
  LayerAcc &A = Acc[W];
  TracingTool::Totals Tot = T.totals();
  for (size_t E = 0; E < kNumEv; ++E) {
    A.Tot.Calls[E] += Tot.Calls[E];
    A.Tot.Elems[E] += Tot.Elems[E];
    A.Tot.TimedCalls[E] += Tot.TimedCalls[E];
    A.Tot.TimedElems[E] += Tot.TimedElems[E];
    A.TimedNs[E] += std::max(0.0, static_cast<double>(Tot.TimedNs[E]) -
                                      ClockNs * Tot.TimedCalls[E]);
  }
  const size_t KeepCap = 100000;
  T.forEachSpan([&](const perfbench::Span &Sp) {
    size_t E = static_cast<size_t>(Sp.Kind);
    double Ns =
        std::max(0.0, static_cast<double>(Sp.End - Sp.Start) - ClockNs);
    A.SpanNs[E].push_back(Ns);
    if (KeptSpans.size() < KeepCap)
      KeptSpans.push_back(Sp);
    else
      ++DroppedSpans;
  });
  for (const RootSpan &R : X.Roots)
    if (KeptRoots.size() < KeepCap)
      KeptRoots.push_back(R);
    else
      ++DroppedSpans;
  for (auto [G, Nm] : kCounters)
    A.Counters[std::string(G) + "." + Nm] += stat(G, Nm);
  A.TracedWall += X.Seconds;
}

void Bench::tracedLoop(const std::vector<Measured> &Ms) {
  TS.assign(Ms.size(), std::vector<Series>(Ws.size()));
  ClockNs = clockOverheadNs();
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(Opt.Seconds * 1e9);
  const unsigned MinRounds = 2;
  Det Check = checked();
  for (unsigned Round = 0; Round < MinRounds || nowNs() < Deadline; ++Round) {
    for (size_t WI = 0; WI < Ws.size(); ++WI) {
      unsigned W = Ws[WI];
      TraceHook Hook;
      Hook.Harvest = [this, W](TracingTool &T, const Exec &X) {
        harvest(W, T, X);
      };
      for (size_t U = 0; U < Ms.size(); ++U) {
        Exec Plain = Ms[U].Run(W, Check, nullptr);
        checkTimed(Ms[U].Name, Plain, Check);
        // Counters are process-wide: zero them so the traced execution's
        // harvest reads only its own.
        stats::resetAll();
        Exec Traced = Ms[U].Run(W, Check, &Hook);
        checkTimed(Ms[U].Name, Traced, Check);
        Series &Sr = TS[U][WI];
        Sr.Base.push_back(Plain.Seconds);
        Sr.Check.push_back(Traced.Seconds);
        PeakTool = std::max(PeakTool, Traced.PeakToolBytes);
      }
      ++Acc[W].Passes;
    }
  }
}

std::vector<Metric> Bench::endToEndMetrics(const std::vector<Measured> &Ms) {
  std::vector<Metric> Out;
  for (size_t WI = 0; WI < 2; ++WI) {
    size_t Idx = std::min(WI, Ws.size() - 1);
    const char *Tag = WI == 0 ? "w1" : "wN";
    double Check = 0, Base = 0;
    std::vector<double> Slow;
    for (size_t U = 0; U < Ms.size(); ++U) {
      double C = usualTime(S[U][Idx].Check, Ws[Idx]);
      double B = usualTime(S[U][Idx].Base, Ws[Idx]);
      Check += C;
      Base += B;
      // A burst speeds up both sides of a one-worker pair, and the pair's
      // ratio cancels it; a stall hits one side of an N-worker pair, so
      // there the ratio is taken between the usual times.
      Slow.push_back(Ws[Idx] == 1 ? median(S[U][Idx].Ratio) : C / B);
    }
    // One-worker times are on the per-kernel lines only: the host runs one
    // thread up to 1.7x faster for minutes at a time, further than any
    // bound allows, while slowdown.w1 divides it out.
    if (WI == 1) {
      Out.push_back({std::string("check_s.") + Tag, Check, "s"});
      Out.push_back({std::string("base_s.") + Tag, Base, "s"});
    }
    Out.push_back({std::string("slowdown.") + Tag, geomean(Slow), "x"});
  }
  Out.push_back({"peak_tool_mb", mb(PeakTool), "MB"});
  Out.push_back({"peak_rss_mb", mb(vmHwmBytes()), "MB"});
  // Service: a quartile of the per-stream quantiles. Dense workloads: each
  // kernel's quantile over its executions, summed over the kernels; over
  // the pooled executions a quantile jumps between the kernels' times.
  auto Latency = [&](const std::vector<double> &PerStream, double Q) {
    if (!PerStream.empty())
      return usualTime(PerStream, N);
    double Sum = 0;
    for (const auto &[Name, V] : LatencyUs)
      Sum += quantile(V, Q);
    return Sum;
  };
  Out.push_back({"req_p50_us", Latency(StreamP50, 0.50), "us"});
  Out.push_back({"req_p99_us", Latency(StreamP99, 0.99), "us"});
  Out.push_back({"setup_s", median(SetupSeconds), "s"});
  double Attempted = static_cast<double>(L.Attempted);
  Out.push_back(
      {"pass_rate",
       Attempted ? (Attempted - static_cast<double>(L.Failed)) / Attempted : 0,
       "ratio"});
  return Out;
}

std::vector<Metric> Bench::perLayerMetrics(const std::vector<Measured> &Ms) {
  std::vector<Metric> Out;
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  std::map<std::string, double> ReadP50;
  for (size_t WI = 0; WI < 2; ++WI) {
    unsigned W = Ws[std::min(WI, Ws.size() - 1)];
    const char *Tag = WI == 0 ? "w1" : "wN";
    const LayerAcc &A = Acc[W];
    double Passes = std::max(1u, A.Passes);
    auto Put = [&](const std::string &Name, double V, const char *U) {
      Out.push_back({Name + "." + Tag, V, U});
    };
    auto Ctr = [&](const char *Name) {
      auto It = A.Counters.find(Name);
      return It == A.Counters.end() ? 0.0 : static_cast<double>(It->second);
    };
    auto P50 = [&](Ev E) {
      return median(A.SpanNs[static_cast<size_t>(E)]);
    };
    auto Calls = [&](Ev E) {
      return static_cast<double>(A.Tot.Calls[static_cast<size_t>(E)]);
    };
    // Tool-call costs (sampled spans) and exact volumes (per pass).
    Put("detector.read.ns_p50", P50(Ev::Read), "ns");
    Put("detector.read.calls", Calls(Ev::Read) / Passes, "count");
    Put("detector.write.ns_p50", P50(Ev::Write), "ns");
    Put("detector.write.calls", Calls(Ev::Write) / Passes, "count");
    for (Ev E : {Ev::ReadRange, Ev::WriteRange}) {
      size_t K = static_cast<size_t>(E);
      std::string Stem = std::string("detector.") + perfbench::evName(E);
      Put(Stem + ".ns_per_elem",
          Ratio(A.TimedNs[K], static_cast<double>(A.Tot.TimedElems[K])), "ns");
      Put(Stem + ".calls", Calls(E) / Passes, "count");
      Put(Stem + ".elems", static_cast<double>(A.Tot.Elems[K]) / Passes,
          "count");
    }
    for (Ev E : {Ev::TaskCreate, Ev::TaskStart, Ev::TaskEnd, Ev::FinishEnd,
                 Ev::Register, Ev::Unregister})
      Put(std::string("detector.") + perfbench::evName(E) + ".ns_p50",
          P50(E), "ns");
    // Detector busy time: range events are all timed; the others add
    // p50 x exact calls. A timed short call costs more than an untimed one
    // (the clock reads stop it overlapping the code around it), so its
    // mean would over-count; the p50 matches the per-call cost implied by
    // check_s - base_s at one worker.
    double ToolNs = 0;
    for (size_t E = 0; E < kNumEv; ++E) {
      bool Range = E == static_cast<size_t>(Ev::ReadRange) ||
                   E == static_cast<size_t>(Ev::WriteRange);
      ToolNs += Range ? A.TimedNs[E]
                      : median(A.SpanNs[E]) *
                            static_cast<double>(A.Tot.Calls[E]);
    }
    double WorkerSeconds = A.TracedWall * W;
    Put("detector.busy_share", Ratio(ToolNs * 1e-9, WorkerSeconds), "ratio");
    Put("runtime.self_s", (A.TracedWall - ToolNs * 1e-9 / W) / Passes, "s");
    ReadP50[Tag] = P50(Ev::Read);

    // Check elision.
    double Scalar = Calls(Ev::Read) + Calls(Ev::Write);
    double RangeCalls = Calls(Ev::ReadRange) + Calls(Ev::WriteRange);
    double Filter = Ctr("spd3.stepFilterHits");
    double Actions = Ctr("spd3.memActions");
    Put("runtime.hook_filter_ratio", Ratio(Filter, Filter + Scalar), "ratio");
    Put("detector.check_cache_ratio", Ratio(Ctr("spd3.checkCacheHits"), Scalar),
        "ratio");
    Put("detector.range_cache_ratio",
        Ratio(Ctr("spd3.rangeCacheHits"), RangeCalls), "ratio");
    Put("detector.range_reuse_ratio",
        Ratio(Ctr("spd3.rangeComputeReuse"), Ctr("spd3.rangeElems")), "ratio");
    Put("detector.no_update_ratio", Ratio(Ctr("spd3.noUpdateActions"), Actions),
        "ratio");
    Put("dpst.memo_hits", Ctr("spd3.dmhpMemoHits") / Passes, "count");
    Put("dpst.dmhp_queries", Ctr("dpst.dmhpQueries") / Passes, "count");
    Put("dpst.label_hits", Ctr("dpst.labelDmhpHits") / Passes, "count");
    Put("dpst.label_fallbacks", Ctr("dpst.labelDmhpFallbacks") / Passes,
        "count");
    Put("dpst.lca_hops", Ctr("dpst.lcaHops") / Passes, "count");
    // Seqlock retries per thousand memory actions.
    Put("detector.snapshot_retries_per_k",
        Ratio(Ctr("spd3.snapshotRetries") * 1000, Actions), "1/k");
    Put("detector.cas_retries_per_k",
        Ratio(Ctr("spd3.casRetries") * 1000, Actions), "1/k");
    // Shadow tiers.
    Put("detector.shadow.range_cells", Ctr("shadow.rangeCells") / Passes,
        "count");
    Put("detector.shadow.primary_cells", Ctr("shadow.primaryCells") / Passes,
        "count");
    Put("detector.shadow.split_granules", Ctr("shadow.splitGranules") / Passes,
        "count");
    Put("detector.shadow.fallback_cells", Ctr("shadow.fallbackCells") / Passes,
        "count");
    Put("detector.shadow.primary_exhausted",
        Ctr("spd3.primaryExhausted") / Passes, "count");
    // Reclamation.
    Put("reclaim.epoch_advances", Ctr("reclaim.epochAdvances") / Passes,
        "count");
    Put("reclaim.subtrees_retired", Ctr("reclaim.subtreesRetired") / Passes,
        "count");
    Put("reclaim.nodes_retired", Ctr("reclaim.nodesRetired") / Passes,
        "count");
    Put("reclaim.backlog_mb",
        (Ctr("reclaim.retiredBytes") - Ctr("reclaim.freedBytes")) / Passes /
            1048576.0,
        "MB");
    Put("reclaim.pages_recycled", Ctr("shadow.primaryPagesRecycled") / Passes,
        "count");
    Put("reclaim.range_cells_reclaimed",
        Ctr("shadow.rangeCellsReclaimed") / Passes, "count");
    // Runtime volumes.
    Put("runtime.tasks", Ctr("runtime.tasksSpawned") / Passes, "count");
    Put("runtime.steals", Ctr("runtime.steals") / Passes, "count");
    Put("runtime.finish_scopes", Ctr("runtime.finishScopes") / Passes,
        "count");
    Put("obs.events", Ctr("obs.eventsEmitted"), "count");
    // Tracing cost: traced over untraced wall, per-unit medians summed.
    double Traced = 0, Plain = 0;
    size_t Idx = std::min(WI, Ws.size() - 1);
    for (size_t U = 0; U < Ms.size(); ++U) {
      Traced += median(TS[U][Idx].Check);
      Plain += median(TS[U][Idx].Base);
    }
    Put("trace.overhead", Ratio(Traced, Plain), "x");
  }
  Out.push_back({"support.contention", Ratio(ReadP50["wN"], ReadP50["w1"]),
                 "x"});
  return Out;
}

void Bench::writeSpans() {
  if (Opt.SpansPath.empty())
    return;
  std::FILE *F = std::fopen(Opt.SpansPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot write spans to %s\n", Opt.SpansPath.c_str());
    return;
  }
  uint64_t Origin = UINT64_MAX;
  for (const RootSpan &R : KeptRoots)
    Origin = std::min(Origin, R.Start);
  for (const perfbench::Span &Sp : KeptSpans)
    Origin = std::min(Origin, Sp.Start);
  auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };
  // Raw steady_clock times relative to the first span; tool-call spans
  // still include the clock cost the metrics subtract.
  std::fprintf(F, "# name\tid\tparent\tworker\tstart_ns\tend_ns\telems\n");
  for (const RootSpan &R : KeptRoots)
    std::fprintf(F, "%s\t%llu\t0\t0\t%llu\t%llu\t0\n", R.Name, U(R.Id),
                 U(R.Start - Origin), U(R.End - Origin));
  for (const perfbench::Span &Sp : KeptSpans)
    std::fprintf(F, "%s\t0\t%llu\t%u\t%llu\t%llu\t%llu\n",
                 perfbench::evName(Sp.Kind), U(Sp.Parent), Sp.Worker,
                 U(Sp.Start - Origin), U(Sp.End - Origin), U(Sp.Elems));
  std::fclose(F);
  std::printf("# spans: %zu parents and %zu tool calls written to %s (%llu "
              "over the cap dropped); %.0f ns clock cost subtracted from "
              "each call in the metrics\n",
              KeptRoots.size(), KeptSpans.size(), Opt.SpansPath.c_str(),
              U(DroppedSpans), ClockNs);
}

int Bench::run() {
  std::vector<Unit> Units = denseUnits(Opt.Workload);
  if (Units.empty() && !isService()) {
    std::fprintf(stderr, "unknown workload '%s'\n", Opt.Workload.c_str());
    return 2;
  }
  std::printf("# env {\"nproc\": %u, \"workers\": %u, \"simd\": \"%s\", "
              "\"numa_nodes\": %u, \"build_type\": \"%s\", \"seed\": %llu, "
              "\"workload\": \"%s\", \"size\": \"%s\", \"trace\": %d}\n",
              nproc(), N, simd::backendName(simd::backend()),
              numa::nodeCount(), SPD3_BENCH_BUILD_TYPE,
              static_cast<unsigned long long>(Opt.Seed), Opt.Workload.c_str(),
              Opt.Tiny ? "tiny" : "full", Opt.Trace ? 1 : 0);

  if (isService())
    serviceCorrectnessChecks();
  else
    correctnessChecks(Units);

  std::vector<Measured> Ms = measuredUnits();
  std::vector<Metric> Metrics;
  if (Opt.Trace) {
    tracedLoop(Ms);
    Metrics = perLayerMetrics(Ms);
    writeSpans();
  } else {
    timedLoop(Ms);
    Metrics = endToEndMetrics(Ms);
    L.check(stat("obs", "eventsEmitted") == 0,
            "obs recorded events in an untraced run");
  }

  const auto &Rows = Opt.Trace ? TS : S;
  size_t LatencySamples = 0;
  for (const auto &[Name, V] : LatencyUs)
    LatencySamples += V.size();
  std::printf("# samples: %zu timed rounds per unit and worker count, %zu "
              "latency samples, %zu set-ups\n",
              Rows[0][0].Check.size(), LatencySamples, SetupSeconds.size());
  // Untraced: the quantile the time metrics sum; traced: medians.
  auto Stat = [&](const std::vector<double> &V, unsigned W) {
    return Opt.Trace ? median(V) : usualTime(V, W);
  };
  for (size_t U = 0; U < Ms.size(); ++U)
    for (size_t WI = 0; WI < Ws.size(); ++WI)
      std::printf("# %-12s w%u  %s %.6fs  %s %.6fs\n", Ms[U].Name.c_str(),
                  Ws[WI], Opt.Trace ? "untraced" : "base",
                  Stat(Rows[U][WI].Base, Ws[WI]),
                  Opt.Trace ? "traced" : "spd3",
                  Stat(Rows[U][WI].Check, Ws[WI]));
  for (const std::string &F : L.Failures)
    std::printf("# FAILED: %s\n", F.c_str());
  std::printf("# fail_rate %.9g (%llu of %llu operations failed)\n",
              L.Attempted ? static_cast<double>(L.Failed) /
                                static_cast<double>(L.Attempted)
                          : 0.0,
              static_cast<unsigned long long>(L.Failed),
              static_cast<unsigned long long>(L.Attempted));
  printResult(L, Metrics);
  return 0;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--workload" && (V = Next()))
      O.Workload = V;
    else if (A == "--seed" && (V = Next()))
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds" && (V = Next()))
      O.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace" && (V = Next()))
      O.Trace = std::string(V) == "1";
    else if (A == "--size" && (V = Next()))
      O.Tiny = std::string(V) == "tiny";
    else if (A == "--spans" && (V = Next()))
      O.SpansPath = V;
    else if (A == "--wrong-verdict")
      O.WrongVerdict = true;
    else {
      std::fprintf(stderr, "bad argument: %s\n", A.c_str());
      return false;
    }
  }
  return !O.Workload.empty() && O.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: spd3_bench --workload W --seed N --seconds S "
                 "--trace 0|1 [--size tiny|full] [--spans PATH] "
                 "[--wrong-verdict]\n");
    return 2;
  }
  std::vector<std::string> Env = programOverrides();
  if (!Env.empty()) {
    std::fprintf(stderr, "refusing to time: %s is set and changes the "
                         "measured program\n",
                 Env.front().c_str());
    return 3;
  }
  std::string Build = buildProblem();
  if (!Build.empty()) {
    std::fprintf(stderr, "refusing to time a %s\n", Build.c_str());
    return 3;
  }
  return Bench(std::move(O)).run();
}
