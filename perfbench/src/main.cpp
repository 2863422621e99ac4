//===- perfbench/src/main.cpp - benchmark command line --------------------===//
//
//   perfbench_run --workload <static_corpus|sim_validate|store_replay>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--smoke] [--work-dir <dir>]
//   perfbench_run --selftest
//
// Prints human-readable detail first and ends stdout with one JSON line:
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when any check
// failed and 2 on a bad command line.
//
// Untraced, the named workload runs for the whole time and reports every
// end-to-end metric. Traced, all three workloads run, each for a third of
// the time, because every per-layer metric is measured on the one workload
// that exercises its layer; the trace.* and host.* metrics come from the
// named workload.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"
#include "Stats.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

using namespace perfbench;

int runSelftest();

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_run --workload <static_corpus|"
               "sim_validate|store_replay> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--work-dir <dir>]\n"
               "       perfbench_run --selftest\n",
               Why);
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  if (!*S || *S == '-')
    return false;
  Out = std::strtoull(S, &End, 10);
  return *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig C;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    uint64_t N = 0;
    if (A == "--selftest")
      return runSelftest();
    if (A == "--smoke") {
      C.Scale = Size::Smoke;
    } else if (A == "--workload") {
      const char *V = value();
      if (!V)
        return usage("--workload needs a value");
      C.Workload = V;
    } else if (A == "--seed") {
      const char *V = value();
      if (!V || !parseUnsigned(V, C.Seed))
        return usage("--seed needs a non-negative integer");
    } else if (A == "--seconds") {
      const char *V = value();
      char *End = nullptr;
      C.Seconds = V ? std::strtod(V, &End) : -1;
      if (!V || *End || !(C.Seconds > 0 && C.Seconds <= 600))
        return usage("--seconds needs a number in (0, 600]");
    } else if (A == "--trace") {
      const char *V = value();
      if (!V || !parseUnsigned(V, N) || N > 1)
        return usage("--trace needs 0 or 1");
      C.Trace = N == 1;
    } else if (A == "--work-dir") {
      const char *V = value();
      if (!V)
        return usage("--work-dir needs a value");
      C.WorkDir = V;
    } else {
      return usage(("unknown argument '" + A + "'").c_str());
    }
  }

  using RunFn = void (*)(const RunConfig &, Report &);
  const std::pair<const char *, RunFn> Workloads[] = {
      {"static_corpus", runStaticCorpus},
      {"sim_validate", runSimValidate},
      {"store_replay", runStoreReplay}};
  RunFn Run = nullptr;
  for (const auto &[Name, Fn] : Workloads)
    if (C.Workload == Name)
      Run = Fn;
  if (!Run)
    return usage("unknown or missing --workload");
  if ((C.Trace || C.Workload == "store_replay") && C.WorkDir.empty())
    return usage("store_replay and --trace 1 need --work-dir");

  Report R;
  if (!C.Trace) {
    Run(C, R);
  } else {
    for (const auto &[Name, Fn] : Workloads) {
      RunConfig Sub = C;
      Sub.Workload = Name;
      Sub.Seconds = C.Seconds / 3;
      Report Part;
      Fn(Sub, Part);
      R.Attempted += Part.Attempted;
      R.Failed += Part.Failed;
      R.Failures.insert(R.Failures.end(), Part.Failures.begin(),
                        Part.Failures.end());
      bool Named = C.Workload == Name;
      for (const Metric &M : Part.Metrics)
        if (Named || !isRunMetric(M.Name))
          R.Metrics.push_back(M);
    }
  }
  for (const std::string &F : R.Failures)
    std::fprintf(stderr, "CHECK FAILED: %s\n", F.c_str());
  for (const Metric &M : R.Metrics)
    if (!validMetricName(M.Name)) {
      std::fprintf(stderr, "error: invalid metric name '%s'\n",
                   M.Name.c_str());
      return 1;
    }
  std::fflush(stderr);
  std::printf("%s\n", resultLine(R).c_str());
  return R.Failed == 0 && R.Attempted > 0 ? 0 : 1;
}
