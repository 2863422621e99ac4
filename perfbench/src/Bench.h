//===- perfbench/src/Bench.h - shared benchmark types ---------------------===//
//
// Part of the delinq repository benchmark. The benchmark drives the public
// entry points of each src/ module from outside and reports end-to-end and
// per-layer metrics as one JSON line; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "exec/Hash.h"
#include "exec/Serialize.h"
#include "obs/Trace.h"
#include "sim/Machine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Which inputs a run builds: the full workload or a tiny smoke size that
/// exercises every code path in a second or two.
enum class Size { Full, Smoke };

/// One benchmark invocation.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  Size Scale = Size::Full;
  /// Scratch directory for the persistent store of store_replay; must lie
  /// inside the checkout the benchmark runs from.
  std::string WorkDir;
  /// Closed-loop clients and store-session workers: four, or fewer on a
  /// host with fewer hardware threads.
  unsigned Threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload hands back: its metrics plus the operation tally that
/// the result line reports as `attempted`/`failed`.
struct Report {
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< First few failure messages.

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Counts one failed or mismatched operation.
  void fail(const std::string &Why) {
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(Why);
  }
  /// Counts one operation; \p Ok false also counts it as failed.
  void check(bool Ok, const std::string &Why) {
    ++Attempted;
    if (!Ok)
      fail(Why);
  }
};

/// Seconds on the steady clock since an arbitrary epoch.
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls \p F inside an obs::Span named after the layer entry point. With
/// tracing off the span costs one relaxed atomic load, so traced and
/// untraced runs execute the same code.
template <typename Fn> decltype(auto) layer(const char *Name, Fn &&F) {
  dlq::obs::Span S(Name);
  return F();
}

/// Same with one string attribute (the program a sim span belongs to).
template <typename Fn>
decltype(auto) layer(const char *Name, const std::string &Prog, Fn &&F) {
  dlq::obs::Span S(Name);
  S.attr("prog", Prog);
  return F();
}

/// FNV-1a of a serialized RunResult: counters, per-PC exec and miss
/// counts, prefetch accounting and the output.
inline uint64_t runDigest(const dlq::sim::RunResult &R) {
  dlq::exec::ByteWriter W;
  dlq::exec::writeRunResult(W, R);
  return dlq::exec::fnv1a(W.buffer().data(), W.buffer().size());
}

/// Whole passes stop once another one would overshoot the time budget by
/// more than half a pass, so a pass about as long as the budget runs once.
inline bool budgetSpent(double TimedWall, size_t Passes, double Seconds) {
  return Passes > 0 && TimedWall >= Seconds - 0.5 * TimedWall / Passes;
}

/// Calls \p F(I) for I in [0, N) on \p Threads threads and joins them all.
/// \p F must not throw.
template <typename Fn> void parallelFor(size_t N, unsigned Threads, Fn F) {
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < N;)
      F(I);
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &T : Pool)
    T.join();
}

/// The three workloads. Each fills \p R and returns normally; failures are
/// recorded in the report.
void runStaticCorpus(const RunConfig &C, Report &R);
void runSimValidate(const RunConfig &C, Report &R);
void runStoreReplay(const RunConfig &C, Report &R);

/// Process peak resident set in MiB.
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
