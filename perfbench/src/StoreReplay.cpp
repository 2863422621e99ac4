//===- perfbench/src/StoreReplay.cpp - the store_replay workload ----------===//
//
// Repeated bench sessions against one persistent ResultStore. Set-up fills
// the store cold; each timed session builds a fresh pipeline::Driver on it
// and issues the full-registry query mix (Table 11 evals, hotspot loads,
// the prefetch what-if under none/nextline/pcax/oracle on Delta_H) plus
// evals at a threshold no earlier session used.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Calibration.h"
#include "Inputs.h"
#include "Layers.h"
#include "Stats.h"

#include "exec/Hash.h"
#include "obs/Counters.h"
#include "pipeline/Pipeline.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

using namespace dlq;
using pipeline::InputSel;

namespace perfbench {

namespace {

/// Fewest queries a full untraced run times, so op_ms_tail (p99) has at
/// least ten samples beyond it.
constexpr size_t MinTimedQueries = 1000;

/// Digests of one workload's answers to the standard query mix.
struct Answers {
  uint64_t Run = 0, EvalFull = 0, EvalNoFreq = 0, Hotspot = 0;
  uint64_t Prefetch[4] = {}; ///< none, nextline, pcax, oracle.

  bool operator==(const Answers &O) const {
    return Run == O.Run && EvalFull == O.EvalFull &&
           EvalNoFreq == O.EvalNoFreq && Hotspot == O.Hotspot &&
           std::equal(Prefetch, Prefetch + 4, O.Prefetch);
  }
};

/// What one workload's query chain returned within a session.
struct ChainResult {
  Answers A;
  std::vector<double> LatencyMs;
  bool DeltaOk = true; ///< The new-threshold eval is consistent.
  /// Coverage and precision of Delta_H, and the load-miss cut of pcax
  /// armed on it against the unarmed run.
  double Rho = 0, Pi = 0, Cut = 0;
};

uint64_t digest(const metrics::LoadSet &S) {
  exec::Fnv1a H;
  for (const masm::InstrRef &Ref : S)
    H.u32(Ref.FuncIdx).u32(Ref.InstrIdx);
  return H.value();
}

uint64_t digest(const pipeline::HeuristicEval &E) {
  exec::Fnv1a H;
  H.u64(digest(E.Delta));
  for (const auto &[Ref, Phi] : E.Scores)
    H.u32(Ref.FuncIdx).u32(Ref.InstrIdx).f64(Phi);
  H.u64(E.E.Lambda).u64(E.E.DeltaSize).u64(E.E.TotalMisses)
      .u64(E.E.CoveredMisses);
  return H.value();
}

/// The query mix of one workload, in order. \p NewDelta <= 0 skips the
/// new-threshold eval (the cold fill issues only the standard mix).
ChainResult queryChain(pipeline::Driver &D, const std::string &Name,
                       double NewDelta, Calibrator &Cal) {
  obs::Span Op("op.chain");
  ChainResult Out;
  const sim::CacheConfig Cache = sim::CacheConfig::baseline();
  auto timed = [&](const char *Span, auto &&Fn) -> decltype(auto) {
    Cal.maybeSample();
    double T0 = nowSeconds();
    decltype(auto) V = layer(Span, Name, Fn);
    Out.LatencyMs.push_back((nowSeconds() - T0) * 1e3);
    return V;
  };
  classify::HeuristicOptions Full, NoFreq;
  NoFreq.UseFreqClasses = false;

  Out.A.Run = runDigest(timed("pipeline.query.run", [&]() -> const auto & {
    return D.run(Name, InputSel::Input1, 0, Cache);
  }));
  const pipeline::HeuristicEval &H =
      timed("pipeline.query.eval", [&]() -> const auto & {
        return D.evalHeuristic(Name, InputSel::Input1, 0, Cache, Full);
      });
  Out.A.EvalFull = digest(H);
  Out.Rho = H.E.rho();
  Out.Pi = H.E.pi();
  Out.A.EvalNoFreq = digest(timed("pipeline.query.eval", [&]() -> const auto & {
    return D.evalHeuristic(Name, InputSel::Input1, 0, Cache, NoFreq);
  }));
  Out.A.Hotspot = digest(timed("pipeline.query.hotspot", [&] {
    return D.hotspotLoads(Name, InputSel::Input1, 0, Cache, 0.90);
  }));
  const prefetch::Policy Policies[4] = {
      prefetch::Policy::None, prefetch::Policy::NextLine,
      prefetch::Policy::Pcax, prefetch::Policy::Oracle};
  uint64_t Misses[4] = {};
  for (unsigned P = 0; P != 4; ++P) {
    const sim::RunResult &Res =
        timed(P == 3 ? "pipeline.query.oracle" : "pipeline.query.prefetch",
              [&]() -> const auto & {
                return D.runWithPrefetchPolicy(Name, InputSel::Input1, 0,
                                               Cache, Policies[P], H.Delta);
              });
    Out.A.Prefetch[P] = runDigest(Res);
    Misses[P] = Res.LoadMisses;
  }
  Out.Cut = Misses[0] == 0 ? 0.0
                           : 1.0 - static_cast<double>(Misses[2]) /
                                       static_cast<double>(Misses[0]);
  if (NewDelta > 0) {
    classify::HeuristicOptions Opts;
    Opts.Delta = NewDelta;
    const pipeline::HeuristicEval &E =
        timed("pipeline.query.eval", [&]() -> const auto & {
          return D.evalHeuristic(Name, InputSel::Input1, 0, Cache, Opts);
        });
    // A higher threshold flags a subset of the loads the default one did.
    Out.DeltaOk = E.E.Lambda == H.E.Lambda &&
                  std::includes(H.Delta.begin(), H.Delta.end(),
                                E.Delta.begin(), E.Delta.end());
  }
  return Out;
}

/// One session: a fresh driver on \p StoreDir answering the mix for every
/// registry workload, the workloads fanned out over the driver's pool.
std::vector<ChainResult> session(const std::string &StoreDir,
                                 unsigned Threads, double NewDelta,
                                 const std::vector<std::string> &Names,
                                 Calibrator &Cal, exec::StoreStats *Store) {
  obs::Span Op("op.session");
  exec::ExecOptions Opts;
  Opts.Jobs = Threads;
  Opts.CacheDir = StoreDir;
  auto D = layer("pipeline.driver",
                 [&] { return std::make_unique<pipeline::Driver>(Opts); });
  std::vector<ChainResult> Out = D->pool().map<ChainResult>(
      Names.size(),
      [&](size_t I) { return queryChain(*D, Names[I], NewDelta, Cal); });
  if (Store)
    *Store = D->store().stats();
  return Out;
}

/// Median of the histogram samples recorded between two bucket snapshots,
/// interpolated inside the log2 bucket like obs::Histogram::quantile.
double bucketMedian(const std::vector<uint64_t> &Before,
                    const obs::Histogram &H) {
  std::vector<uint64_t> Diff(obs::Histogram::NumBuckets);
  uint64_t Total = 0;
  for (unsigned B = 0; B != Diff.size(); ++B)
    Total += Diff[B] = H.bucketCount(B) - Before[B];
  double Rank = 0.5 * static_cast<double>(Total), Seen = 0;
  for (unsigned B = 0; B != Diff.size(); ++B) {
    if (Diff[B] == 0)
      continue;
    if (Seen + static_cast<double>(Diff[B]) >= Rank) {
      if (B == 0)
        return 0;
      double Lo = static_cast<double>(uint64_t(1) << (B - 1));
      return Lo + Lo * (Rank - Seen) / static_cast<double>(Diff[B]);
    }
    Seen += static_cast<double>(Diff[B]);
  }
  return 0;
}

} // namespace

void runStoreReplay(const RunConfig &C, Report &R) {
  std::string StoreDir = C.WorkDir + "/store";
  std::vector<std::string> Names;
  for (const workloads::Workload &W : workloads::allWorkloads())
    if (C.Scale == Size::Full || W.Name == "li_like" || W.Name == "art_like")
      Names.push_back(W.Name);

  // Set-up, several times (median is setup_s): fill an empty store cold.
  // Every fill must give the same answers; the first is the reference.
  std::vector<ChainResult> Cold;
  std::vector<double> Setups, RawSetups;
  // The traced run reports no setup_s, so two fills are enough there.
  unsigned Fills = C.Scale == Size::Full && !C.Trace ? 3 : 2;
  for (unsigned Rep = 0; Rep != Fills; ++Rep) {
    std::filesystem::remove_all(StoreDir);
    Calibrator Cal;
    Cal.sample(3);
    double T0 = nowSeconds();
    std::vector<ChainResult> Fill =
        session(StoreDir, C.Threads, 0, Names, Cal, nullptr);
    RawSetups.push_back(nowSeconds() - T0);
    Setups.push_back(RawSetups.back() / Cal.slowdown());
    if (Rep == 0) {
      Cold = std::move(Fill);
      continue;
    }
    for (size_t I = 0; I != Names.size(); ++I)
      R.check(Fill[I].A == Cold[I].A, Names[I] + ": cold fills disagree");
  }

  // Timed: sessions on the warm store until the time is spent and enough
  // queries were answered. The traced run alternates untraced and traced
  // sessions.
  size_t MinQueries =
      C.Scale == Size::Smoke || C.Trace ? 0 : MinTimedQueries;
  obs::Tracer &Tr = obs::Tracer::instance();
  obs::Counter &SimRuns = obs::counters().counter("sim.runs");
  const obs::Histogram &Wait = obs::counters().histogram("job.queue_wait.ns");
  std::vector<uint64_t> Wait0(obs::Histogram::NumBuckets);
  for (unsigned B = 0; B != Wait0.size(); ++B)
    Wait0[B] = Wait.bucketCount(B);
  // Unscaled session wall times by [traced]; host-speed scaled queries per
  // second of each untraced session; scaled and unscaled query latencies;
  // the kernel's median milliseconds per session.
  std::vector<double> SessionSec[2];
  std::vector<double> Rates, QueryMs, RawQueryMs, CalMs;
  exec::StoreStats StoreSum;
  uint64_t Sims = 0;
  double TimedWall = 0;
  uint64_t Begin = Tr.nowNs();
  for (unsigned S = 0;; ++S) {
    bool Traced = C.Trace && S % 2 == 1;
    uint64_t Sims0 = SimRuns.value();
    exec::StoreStats St;
    Calibrator Cal;
    if (Traced)
      Tr.enable();
    double T0 = nowSeconds();
    std::vector<ChainResult> Res = session(
        StoreDir, C.Threads, sessionDelta(C.Seed, S), Names, Cal, &St);
    double Wall = nowSeconds() - T0;
    Tr.disable();
    double Slow = Cal.slowdown();
    CalMs.push_back(Cal.medianMs());
    SessionSec[Traced].push_back(Wall);
    size_t Queries = 0;
    for (const ChainResult &CR : Res)
      Queries += CR.LatencyMs.size();
    if (!Traced)
      Rates.push_back(static_cast<double>(Queries) / Wall * Slow);
    TimedWall += Wall;
    Sims += SimRuns.value() - Sims0;
    StoreSum.Hits += St.Hits;
    StoreSum.Misses += St.Misses;
    StoreSum.Writes += St.Writes;
    StoreSum.BytesRead += St.BytesRead;
    for (size_t I = 0; I != Names.size(); ++I) {
      for (double L : Res[I].LatencyMs) {
        RawQueryMs.push_back(L);
        QueryMs.push_back(L / Slow);
      }
      R.check(Res[I].A == Cold[I].A,
              Names[I] + ": warm session disagrees with the cold fill");
      R.check(Res[I].DeltaOk,
              Names[I] + ": new-threshold eval is not a subset of Delta_H");
    }
    bool BothSeen = !C.Trace || !SessionSec[1].empty();
    if (TimedWall >= C.Seconds && QueryMs.size() >= MinQueries && BothSeen)
      break;
  }
  uint64_t End = Tr.nowNs();
  std::filesystem::remove_all(StoreDir);

  size_t Sessions = SessionSec[0].size() + SessionSec[1].size();
  if (!C.Trace) {
    R.add("setup_s", median(Setups), "s");
    R.add("peak_rss_mb", peakRssMb(), "MiB");
    R.add("ok_frac", 1.0 - ratio(R.Failed, R.Attempted), "frac");
    double TailP = tailPercentile(QueryMs.size());
    double RhoSum = 0, PiSum = 0, CutSum = 0;
    for (const ChainResult &CR : Cold) {
      RhoSum += CR.Rho;
      PiSum += CR.Pi;
      CutSum += CR.Cut;
    }
    double NQ = static_cast<double>(Cold.size());
    R.add("op_ms_p50", percentile(QueryMs, 50), "ms");
    R.add("op_ms_tail", percentile(QueryMs, TailP), "ms");
    R.add("ops_per_s", median(Rates), "1/s");
    R.add("rho_pct", 100.0 * RhoSum / NQ, "%");
    R.add("pi_pct", 100.0 * PiSum / NQ, "%");
    R.add("pcax_miss_cut_pct", 100.0 * CutSum / NQ, "%");
    std::fprintf(stderr,
                 "store_replay: %zu sessions, %zu queries in %.2f s; "
                 "op_ms_tail is p%.0f; unscaled: setup %.3f s, session p50 "
                 "%.4f s, query p50 %.4f ms, p99 %.3f ms; calibration "
                 "kernel %.3f ms\n",
                 Sessions, QueryMs.size(), TimedWall, TailP,
                 median(RawSetups), median(SessionSec[0]),
                 percentile(RawQueryMs, 50), percentile(RawQueryMs, 99),
                 median(CalMs));
    return;
  }

  SpanAnalysis A = reportTrace("store_replay", Begin, End, SessionSec,
                               C.Threads, median(CalMs), R);
  double N = static_cast<double>(Sessions);
  R.add("exec.store_hit_frac",
        ratio(StoreSum.Hits, StoreSum.Hits + StoreSum.Misses), "frac");
  R.add("exec.store_read_mb", StoreSum.BytesRead / 1048576.0 / N, "MiB");
  R.add("exec.store_writes", StoreSum.Writes / N, "count");
  R.add("exec.job_wait_ms_p50", bucketMedian(Wait0, Wait) / 1e6, "ms");
  R.add("pipeline.query_ms.run", meanMs(A, "pipeline.query.run"), "ms");
  R.add("pipeline.query_ms.eval", meanMs(A, "pipeline.query.eval"), "ms");
  R.add("pipeline.query_ms.hotspot", meanMs(A, "pipeline.query.hotspot"), "ms");
  R.add("pipeline.query_ms.prefetch", meanMs(A, "pipeline.query.prefetch"),
        "ms");
  R.add("pipeline.query_ms.oracle", meanMs(A, "pipeline.query.oracle"), "ms");
  R.add("pipeline.sims_per_session", Sims / N, "count");
}

} // namespace perfbench
