//===- perfbench/src/Layers.cpp -------------------------------------------===//

#include "Layers.h"

#include "Stats.h"

#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

/// Every span the benchmark wraps around a layer entry point.
const char *const LayerSpanNames[] = {
    "mcc.compile",         "cfg.build",          "classify.analysis",
    "classify.score",      "ipa.summaries",      "ipa.patterns",
    "absint.access",       "camodel.build",      "camodel.predict",
    "prefetch.seed",       "sim.predecode",      "sim.run.plain",
    "sim.run.nextline",    "sim.run.pcax",       "metrics.evaluate",
    "pipeline.driver",     "pipeline.query.run", "pipeline.query.eval",
    "pipeline.query.hotspot", "pipeline.query.prefetch",
    "pipeline.query.oracle",
};

bool isOpSpan(const char *Name) { return std::strncmp(Name, "op.", 3) == 0; }

/// The value of the "prog" attribute in a pre-rendered argument string.
std::string progOf(const std::string &Args) {
  const std::string Key = "\"prog\":\"";
  size_t At = Args.find(Key);
  if (At == std::string::npos)
    return {};
  At += Key.size();
  size_t End = Args.find('"', At);
  return Args.substr(At, End == std::string::npos ? End : End - At);
}

/// True for the span names the benchmark records around layer calls.
bool isLayerSpan(const char *Name) {
  for (const char *L : LayerSpanNames)
    if (std::strcmp(L, Name) == 0)
      return true;
  return false;
}

/// Folds the benchmark's own spans (layer spans plus the "op." spans that
/// bracket one workload operation) recorded inside [BeginNs, EndNs]; spans
/// the program records itself are ignored.
SpanAnalysis analyzeSpans(const std::vector<dlq::obs::TraceEvent> &Events,
                          uint64_t BeginNs, uint64_t EndNs) {
  struct Ev {
    const dlq::obs::TraceEvent *E;
    uint64_t ChildNs = 0;
  };
  std::map<uint32_t, std::vector<Ev>> ByTid;
  std::map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>> LayerByTid;
  for (const dlq::obs::TraceEvent &E : Events) {
    if (E.StartNs < BeginNs || E.StartNs + E.DurNs > EndNs)
      continue;
    bool Layer = isLayerSpan(E.Name);
    if (!Layer && !isOpSpan(E.Name))
      continue;
    ByTid[E.Tid].push_back({&E});
    if (Layer)
      LayerByTid[E.Tid].push_back({E.StartNs, E.StartNs + E.DurNs});
  }

  SpanAnalysis A;
  for (auto &[Tid, Evs] : ByTid) {
    // Parents sort before their children: earlier start, then longer span.
    std::sort(Evs.begin(), Evs.end(), [](const Ev &X, const Ev &Y) {
      if (X.E->StartNs != Y.E->StartNs)
        return X.E->StartNs < Y.E->StartNs;
      return X.E->DurNs > Y.E->DurNs;
    });
    std::vector<Ev *> Stack;
    for (Ev &Cur : Evs) {
      while (!Stack.empty() &&
             Stack.back()->E->StartNs + Stack.back()->E->DurNs <=
                 Cur.E->StartNs)
        Stack.pop_back();
      if (!Stack.empty())
        Stack.back()->ChildNs += Cur.E->DurNs;
      Stack.push_back(&Cur);
    }
    for (const Ev &Cur : Evs) {
      double Total = static_cast<double>(Cur.E->DurNs) / 1e6;
      double Self =
          static_cast<double>(Cur.E->DurNs -
                              std::min(Cur.ChildNs, Cur.E->DurNs)) /
          1e6;
      LayerTotals &T = A.ByName[Cur.E->Name];
      ++T.Count;
      T.TotalMs += Total;
      T.SelfMs += Self;
      std::string Prog = progOf(Cur.E->Args);
      if (!Prog.empty()) {
        LayerTotals &P = A.ByProg[{Cur.E->Name, Prog}];
        ++P.Count;
        P.TotalMs += Total;
        P.SelfMs += Self;
      }
    }
  }

  // Per thread, the union of its layer intervals (nested spans count once).
  uint64_t Covered = 0;
  for (auto &[Tid, Intervals] : LayerByTid) {
    std::sort(Intervals.begin(), Intervals.end());
    uint64_t RunBegin = Intervals.front().first;
    uint64_t RunEnd = Intervals.front().second;
    for (const auto &[B, E] : Intervals) {
      if (B > RunEnd) {
        Covered += RunEnd - RunBegin;
        RunBegin = B;
      }
      RunEnd = std::max(RunEnd, E);
    }
    Covered += RunEnd - RunBegin;
  }
  A.CoveredSec = static_cast<double>(Covered) / 1e9;
  return A;
}

double uncoveredPct(const SpanAnalysis &A, double WallSec, unsigned Threads) {
  double Capacity = WallSec * Threads;
  return Capacity > 0 ? 100.0 * (1 - A.CoveredSec / Capacity) : 0;
}

std::string renderLayerTable(const std::string &Workload,
                             const SpanAnalysis &A, double WallSec,
                             unsigned Threads) {
  using dlq::formatString;
  std::string Out = formatString("== layers: %s (traced wall %.3f s) ==\n",
                                 Workload.c_str(), WallSec);
  Out += formatString("%-28s %10s %12s %12s\n", "span", "count", "total_ms",
                      "self_ms");
  for (const auto &[Name, T] : A.ByName)
    Out += formatString("%-28s %10llu %12.3f %12.3f\n", Name.c_str(),
                        static_cast<unsigned long long>(T.Count), T.TotalMs,
                        T.SelfMs);
  if (!A.ByProg.empty()) {
    Out += formatString("-- per program --\n%-20s %-20s %8s %12s %12s\n",
                        "program", "span", "count", "total_ms", "self_ms");
    // Program-major order: one block of rows per registry program.
    std::map<std::string, std::vector<std::pair<std::string, LayerTotals>>>
        Rows;
    for (const auto &[Key, T] : A.ByProg)
      Rows[Key.second].push_back({Key.first, T});
    for (const auto &[Prog, Spans] : Rows)
      for (const auto &[Name, T] : Spans)
        Out += formatString("%-20s %-20s %8llu %12.3f %12.3f\n", Prog.c_str(),
                            Name.c_str(),
                            static_cast<unsigned long long>(T.Count),
                            T.TotalMs, T.SelfMs);
  }
  Out += formatString("uncovered by any layer span: %.2f%% of %u threads x "
                      "%.3f s\n",
                      uncoveredPct(A, WallSec, Threads), Threads, WallSec);
  return Out;
}

} // namespace

SpanAnalysis reportTrace(const std::string &Workload, uint64_t BeginNs,
                         uint64_t EndNs,
                         const std::vector<double> (&PassWall)[2],
                         unsigned Threads, double CalMs, Report &R) {
  SpanAnalysis A =
      analyzeSpans(dlq::obs::Tracer::instance().snapshot(), BeginNs, EndNs);
  double TracedWall = 0;
  for (double W : PassWall[1])
    TracedWall += W;
  std::fputs(renderLayerTable(Workload, A, TracedWall, Threads).c_str(),
             stdout);
  R.add("trace.uncovered_pct", uncoveredPct(A, TracedWall, Threads), "%");
  double Untraced = median(PassWall[0]);
  R.add("trace.overhead_pct",
        ratio(100.0 * (median(PassWall[1]) - Untraced), Untraced), "%");
  R.add("host.calib_ms", CalMs, "ms");
  return A;
}

double meanMs(const SpanAnalysis &A, const std::string &Name) {
  auto It = A.ByName.find(Name);
  if (It == A.ByName.end() || It->second.Count == 0)
    return 0;
  return It->second.TotalMs / static_cast<double>(It->second.Count);
}

} // namespace perfbench
