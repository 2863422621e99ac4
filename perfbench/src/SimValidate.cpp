//===- perfbench/src/SimValidate.cpp - the sim_validate workload ----------===//
//
// The paper's validation loop: every registry program at O0 and O1 is
// compiled and its Delta_H scored once, then simulated on the paper's
// 8 KiB/4-way/32 B L1 plain (the ground truth for pi and rho) and armed on
// Delta_H under the nextline and pcax prefetch policies.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Calibration.h"
#include "Inputs.h"
#include "Layers.h"
#include "Stats.h"

#include "classify/Delinquency.h"
#include "freq/StaticFreq.h"
#include "mcc/Compiler.h"
#include "metrics/Metrics.h"
#include "obs/Counters.h"
#include "prefetch/Seed.h"
#include "sim/Machine.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace dlq;

namespace perfbench {

namespace {

/// The pipeline driver's guest-instruction cap.
constexpr uint64_t MaxInstrs = 400'000'000;

/// The three simulations of one program, in pass order.
enum RunKind { Plain, NextLine, Pcax, NumKinds };
const char *const KindNames[NumKinds] = {"plain", "nextline", "pcax"};
const char *const RunSpans[NumKinds] = {"sim.run.plain", "sim.run.nextline",
                                        "sim.run.pcax"};

/// One registry program at one opt level with its static artifacts.
struct Subject {
  std::string Name; ///< "mcf_like/O1".
  std::unique_ptr<masm::Module> M;
  std::unique_ptr<masm::Layout> L;
  metrics::LoadSet Delta;
  prefetch::HintMap Hints;
  uint64_t Loads = 0, Patterns = 0;
  /// Digest of the serialized RunResult of each kind in each timed pass.
  std::vector<uint64_t> Timed[NumKinds];
};

/// Compiles \p P and scores its static Delta_H (H5 from static
/// frequencies: no profile).
Subject prepare(const Program &P, unsigned Opt, std::string &Error) {
  Subject S;
  S.Name = P.Name + "/O" + std::to_string(Opt);
  mcc::CompileOptions MOpts;
  MOpts.OptLevel = Opt;
  mcc::CompileResult CR = mcc::compile(P.Source, MOpts);
  if (!CR.ok()) {
    Error = S.Name + ": compile failed: " + CR.Errors;
    return S;
  }
  S.M = std::move(CR.M);
  S.L = std::make_unique<masm::Layout>(*S.M);
  classify::ModuleAnalysis Analysis(*S.M);
  classify::ExecCountMap Counts =
      freq::StaticFreqEstimate(*S.M).loadExecCounts();
  S.Delta = Analysis.delinquentSet(classify::HeuristicOptions(), &Counts);
  S.Hints = prefetch::buildStaticHints(*S.M, *S.L, Analysis.loadPatterns());
  S.Loads = S.M->countLoads();
  for (const auto &[Ref, Pats] : Analysis.loadPatterns())
    S.Patterns += Pats.size();
  return S;
}

sim::MachineOptions machineOptions(const Subject &S, RunKind K,
                                   sim::EngineKind Engine) {
  sim::MachineOptions MO;
  MO.DCache = sim::CacheConfig::baseline();
  MO.MaxInstrs = MaxInstrs;
  MO.Engine = Engine;
  if (K != Plain) {
    MO.PrefetchLoads = S.Delta;
    MO.PrefetchPolicy =
        K == NextLine ? prefetch::Policy::NextLine : prefetch::Policy::Pcax;
    if (K == Pcax)
      MO.PrefetchHints = S.Hints;
  }
  return MO;
}

/// Accumulated over the traced passes.
struct Totals {
  uint64_t PlainLoads = 0, PlainLoadMisses = 0;
  uint64_t PcaxIssued = 0, PcaxUseful = 0, PcaxLate = 0, PcaxLoads = 0;
};

/// What the checks and metrics keep of one timed simulation.
struct RunRecord {
  double Sec = 0; ///< Machine construction (predecode) plus run.
  uint64_t Digest = 0, Instrs = 0, OutputHash = 0;
  uint64_t LoadExecs = 0, LoadMisses = 0;
  uint64_t Issued = 0, Useful = 0, Late = 0;
  metrics::EvalResult E; ///< Plain runs only: pi and rho of Delta_H.

  void record(const sim::RunResult &R, const masm::Module &M) {
    Digest = R.ok() ? runDigest(R) : 0;
    Instrs = R.InstrsExecuted;
    OutputHash = exec::fnv1a(R.Output.data(), R.Output.size());
    for (const auto &[Ref, St] : R.loadStats(M))
      LoadExecs += St.Execs;
    LoadMisses = R.LoadMisses;
    Issued = R.PrefetchesIssued;
    Useful = R.PrefetchUseful;
    Late = R.PrefetchLate;
  }
};

} // namespace

void runSimValidate(const RunConfig &C, Report &R) {
  // Set-up, several times (median is setup_s): generate the inputs, then
  // compile every program at both opt levels and score Delta_H on
  // C.Threads threads.
  std::vector<Subject> Subjects;
  std::vector<double> Setups;
  std::vector<double> RawSetups;
  std::vector<std::string> Errors;
  for (unsigned Rep = 0; Rep != 5; ++Rep) {
    Calibrator Cal;
    Cal.sample(3);
    double T0 = nowSeconds();
    std::vector<Program> Progs = registryPrograms(C.Seed, C.Scale);
    std::vector<Subject> Fresh(Progs.size() * 2);
    Errors.assign(Fresh.size(), std::string());
    parallelFor(Fresh.size(), C.Threads, [&](size_t I) {
      Fresh[I] = prepare(Progs[I / 2], I % 2, Errors[I]);
    });
    RawSetups.push_back(nowSeconds() - T0);
    Setups.push_back(RawSetups.back() / Cal.slowdown());
    Subjects = std::move(Fresh);
  }
  for (const std::string &E : Errors)
    R.check(E.empty(), E);
  if (R.Failed)
    return;

  // Timed: whole passes over every (program, run kind) simulation, shared
  // by C.Threads closed-loop clients, until the time is spent. The traced
  // run alternates untraced and traced passes.
  obs::Tracer &Tr = obs::Tracer::instance();
  obs::Counters &Ctr = obs::counters();
  const char *const JitCounters[] = {"sim.jit.blocks_compiled",
                                     "sim.jit.code_bytes", "sim.jit.deopts",
                                     "sim.jit.interp_retires",
                                     "sim.instrs_retired"};
  uint64_t JitDelta[5] = {};
  Totals T;
  std::vector<double> PassWall[2];
  // Per simulation, its host-speed scaled latency in each pass.
  std::vector<std::vector<double>> OpMs(Subjects.size() * NumKinds),
      RawOpMs(OpMs.size());
  // Per pass, host-speed scaled simulations per second, unscaled Minstr/s
  // of the plain and armed runs, and the kernel's median milliseconds.
  std::vector<double> Rates, RawRates, RawPlain, RawArmed, CalMs;
  double PlainMinstr = 0;
  double RhoSum = 0, PiSum = 0, CutSum = 0;
  double TimedWall = 0;
  unsigned TracedPasses = 0;
  uint64_t Begin = Tr.nowNs();
  for (unsigned Pass = 0;; ++Pass) {
    bool Traced = C.Trace && Pass % 2 == 1;
    uint64_t Jit0[5];
    for (unsigned J = 0; J != 5; ++J)
      Jit0[J] = Ctr.counter(JitCounters[J]).value();
    std::vector<RunRecord> Recs(Subjects.size() * NumKinds);
    Calibrator Cal;
    if (Traced)
      Tr.enable();
    double PassStart = nowSeconds();
    std::vector<size_t> Order = passOrder(Recs.size(), C.Seed, Pass);
    parallelFor(Recs.size(), C.Threads, [&](size_t J) {
      size_t I = Order[J];
      const Subject &S = Subjects[I / NumKinds];
      RunKind K = static_cast<RunKind>(I % NumKinds);
      RunRecord &Rec = Recs[I];
      Cal.maybeSample();
      obs::Span Op("op.simulate");
      double T0 = nowSeconds();
      auto Mach = layer("sim.predecode", S.Name, [&] {
        return std::make_unique<sim::Machine>(
            *S.M, *S.L, machineOptions(S, K, sim::EngineKind::Auto));
      });
      sim::RunResult Res =
          layer(RunSpans[K], S.Name, [&] { return Mach->run(); });
      Rec.Sec = nowSeconds() - T0;
      Rec.record(Res, *S.M);
      if (K == Plain)
        Rec.E = layer("metrics.evaluate", S.Name, [&] {
          return metrics::evaluate(S.Loads, S.Delta, Res.loadStats(*S.M));
        });
    });
    double Wall = nowSeconds() - PassStart;
    Tr.disable();
    PassWall[Traced].push_back(Wall);
    TimedWall += Wall;

    double PassSec[NumKinds] = {}, PassInstrs[NumKinds] = {};
    for (size_t SI = 0; SI != Subjects.size(); ++SI) {
      Subject &S = Subjects[SI];
      const RunRecord *Rec = &Recs[SI * NumKinds];
      for (unsigned K = 0; K != NumKinds; ++K) {
        PassSec[K] += Rec[K].Sec;
        PassInstrs[K] += static_cast<double>(Rec[K].Instrs);
        S.Timed[K].push_back(Rec[K].Digest);
        if (K == Plain)
          continue;
        // An armed run must not change what the program computes.
        ++R.Attempted;
        if (Rec[K].Instrs != Rec[Plain].Instrs ||
            Rec[K].OutputHash != Rec[Plain].OutputHash)
          R.fail(S.Name + " " + KindNames[K] +
                 ": armed run changed the instruction count or output");
      }
      if (Pass == 0) {
        RhoSum += Rec[Plain].E.rho();
        PiSum += Rec[Plain].E.pi();
        CutSum += Rec[Plain].LoadMisses == 0
                      ? 0.0
                      : 1.0 - static_cast<double>(Rec[Pcax].LoadMisses) /
                                  static_cast<double>(Rec[Plain].LoadMisses);
      }
      if (Traced) {
        T.PlainLoads += Rec[Plain].LoadExecs;
        T.PlainLoadMisses += Rec[Plain].LoadMisses;
        T.PcaxIssued += Rec[Pcax].Issued;
        T.PcaxUseful += Rec[Pcax].Useful;
        T.PcaxLate += Rec[Pcax].Late;
        T.PcaxLoads += Rec[Pcax].LoadExecs;
      }
    }
    double Slow = Cal.slowdown();
    CalMs.push_back(Cal.medianMs());
    RawPlain.push_back(PassInstrs[Plain] / 1e6 / PassSec[Plain]);
    RawArmed.push_back((PassInstrs[NextLine] + PassInstrs[Pcax]) / 1e6 /
                       (PassSec[NextLine] + PassSec[Pcax]));
    RawRates.push_back(static_cast<double>(Recs.size()) / Wall);
    Rates.push_back(RawRates.back() * Slow);
    for (size_t I = 0; I != Recs.size(); ++I) {
      RawOpMs[I].push_back(Recs[I].Sec * 1e3);
      OpMs[I].push_back(RawOpMs[I].back() / Slow);
    }
    PlainMinstr = PassInstrs[Plain] / 1e6;
    if (Traced) {
      ++TracedPasses;
      for (unsigned J = 0; J != 5; ++J)
        JitDelta[J] += Ctr.counter(JitCounters[J]).value() - Jit0[J];
    }
    bool BothSeen = !C.Trace || TracedPasses > 0;
    if (budgetSpent(TimedWall, Pass + 1, C.Seconds) && BothSeen)
      break;
  }
  uint64_t End = Tr.nowNs();
  double PeakRss = peakRssMb();

  // References, after the timed section: every run again on the
  // interpreter engine; each timed run must match it exactly.
  std::vector<uint64_t> Want(Subjects.size() * NumKinds);
  parallelFor(Want.size(), C.Threads, [&](size_t I) {
    const Subject &S = Subjects[I / NumKinds];
    RunKind K = static_cast<RunKind>(I % NumKinds);
    sim::Machine Mach(*S.M, *S.L,
                      machineOptions(S, K, sim::EngineKind::Interp));
    sim::RunResult Ref = Mach.run();
    Want[I] = Ref.ok() ? runDigest(Ref) : 1;
  });
  for (size_t I = 0; I != Want.size(); ++I) {
    const Subject &S = Subjects[I / NumKinds];
    unsigned K = I % NumKinds;
    for (uint64_t Got : S.Timed[K])
      R.check(Got == Want[I],
              S.Name + " " + KindNames[K] +
                  ": RunResult differs from the interpreter reference");
  }

  double N = static_cast<double>(Subjects.size());
  if (!C.Trace) {
    std::vector<double> Lat, RawLat;
    for (size_t I = 0; I != OpMs.size(); ++I) {
      Lat.push_back(median(OpMs[I]));
      RawLat.push_back(median(RawOpMs[I]));
    }
    // 108 simulations leave ten samples beyond p90, not beyond p99.
    double TailP = tailPercentile(Lat.size());
    R.add("setup_s", median(Setups), "s");
    R.add("peak_rss_mb", PeakRss, "MiB");
    R.add("ok_frac", 1.0 - ratio(R.Failed, R.Attempted), "frac");
    R.add("op_ms_p50", percentile(Lat, 50), "ms");
    R.add("op_ms_tail", percentile(Lat, TailP), "ms");
    R.add("ops_per_s", median(Rates), "1/s");
    R.add("rho_pct", 100.0 * RhoSum / N, "%");
    R.add("pi_pct", 100.0 * PiSum / N, "%");
    R.add("pcax_miss_cut_pct", 100.0 * CutSum / N, "%");
    std::fprintf(stderr,
                 "sim_validate: %zu programs, %zu simulations x %zu passes "
                 "in %.2f s; op_ms_tail is p%.0f; unscaled: setup %.4f s, "
                 "p50 %.3f ms, tail %.3f ms, %.2f sims/s, plain %.2f, armed "
                 "%.2f Minstr/s; calibration kernel %.3f ms\n",
                 Subjects.size(), Lat.size(), PassWall[0].size(), TimedWall,
                 TailP, median(RawSetups), percentile(RawLat, 50),
                 percentile(RawLat, TailP), median(RawRates), median(RawPlain),
                 median(RawArmed), median(CalMs));
    return;
  }

  SpanAnalysis A = reportTrace("sim_validate", Begin, End, PassWall,
                               C.Threads, median(CalMs), R);
  uint64_t Loads = 0, Patterns = 0, Delta = 0;
  for (const Subject &S : Subjects) {
    Loads += S.Loads;
    Patterns += S.Patterns;
    Delta += S.Delta.size();
  }
  double Passes = TracedPasses;
  R.add("classify.delta_frac", ratio(Delta, Loads), "frac");
  R.add("ap.patterns_per_load", ratio(Patterns, Loads), "count");
  R.add("sim.predecode_ms", meanMs(A, "sim.predecode"), "ms");
  R.add("sim.plain_run_ms", meanMs(A, "sim.run.plain"), "ms");
  R.add("sim.guest_minstr", PlainMinstr, "Minstr");
  R.add("sim.load_miss_ratio", ratio(T.PlainLoadMisses, T.PlainLoads),
        "frac");
  R.add("jit.blocks_compiled", JitDelta[0] / Passes, "count");
  R.add("jit.code_kb", JitDelta[1] / 1024.0 / Passes, "KiB");
  R.add("jit.deopts", JitDelta[2] / Passes, "count");
  R.add("jit.interp_retire_frac", ratio(JitDelta[3], JitDelta[4]), "frac");
  R.add("prefetch.run_ms.nextline", meanMs(A, "sim.run.nextline"), "ms");
  R.add("prefetch.run_ms.pcax", meanMs(A, "sim.run.pcax"), "ms");
  R.add("prefetch.issued_per_kload",
        ratio(1000.0 * T.PcaxIssued, T.PcaxLoads), "count");
  R.add("prefetch.useful_frac", ratio(T.PcaxUseful, T.PcaxIssued), "frac");
  R.add("prefetch.late_frac", ratio(T.PcaxLate, T.PcaxIssued), "frac");
  R.add("metrics.evaluate_ms", meanMs(A, "metrics.evaluate"), "ms");
}

} // namespace perfbench
