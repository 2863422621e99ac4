//===- perfbench/src/StaticCorpus.cpp - the static_corpus workload --------===//
//
// Compiler-style traffic: many small programs taken from source to Delta_H,
// camodel predictions and prefetch seeds, with no simulation in the timed
// section. One operation is one program at one opt level in one IPA mode.
// After the timed section the registry programs' Delta_H and seeds are
// scored against plain and pcax-armed simulations.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Calibration.h"
#include "Inputs.h"
#include "Layers.h"
#include "Stats.h"

#include "absint/AccessSummary.h"
#include "camodel/Camodel.h"
#include "classify/Delinquency.h"
#include "exec/Hash.h"
#include "freq/StaticFreq.h"
#include "ipa/Summaries.h"
#include "mcc/Compiler.h"
#include "metrics/Metrics.h"
#include "obs/Counters.h"
#include "prefetch/Seed.h"
#include "sim/Machine.h"
#include "sim/Profile.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace dlq;

namespace perfbench {

namespace {

/// Fewest passes of a run: each operation's latency is its median over the
/// passes, which damps the passes where it happened to run beside the
/// heaviest operations. Two passes of the 3272 operations take 12 to 24 s
/// on the reference host, depending on its state.
constexpr unsigned MinPasses = 2;
/// Guest-instruction caps of the O0-vs-O1 check runs: registry programs
/// must exit within the pipeline's cap; generated ones get the fuzz
/// campaign's budget.
constexpr uint64_t RegistryMaxInstrs = 400'000'000;
constexpr uint64_t FuzzMaxInstrs = 50'000'000;

struct Op {
  size_t Prog;
  unsigned Opt;
  bool Ipa;
};

/// What one analysis operation produced: a digest of every output plus the
/// counts the per-layer metrics are made of.
struct OpResult {
  bool Ok = false;
  uint64_t Digest = 0;
  uint64_t Instrs = 0;
  uint64_t Accesses = 0, RegularAccesses = 0;
  uint64_t Predictions = 0, KnownPredictions = 0;
  uint64_t Hints = 0, SeededHints = 0;
};

/// The build, Delta_H and prefetch seeds of one analysis, kept for the
/// quality evaluation.
struct Artifacts {
  std::unique_ptr<masm::Module> M;
  metrics::LoadSet Delta;
  prefetch::HintMap Hints;
};

/// Runs one operation. With \p Keep set (outside the timed section only) it
/// also hands back the artifacts the quality evaluation needs.
OpResult analyze(const Program &P, unsigned Opt, bool Ipa,
                 Artifacts *Keep = nullptr) {
  OpResult R;
  mcc::CompileOptions MOpts;
  MOpts.OptLevel = Opt;
  mcc::CompileResult CR =
      layer("mcc.compile", [&] { return mcc::compile(P.Source, MOpts); });
  if (!CR.ok())
    return R;
  const masm::Module &M = *CR.M;
  masm::Layout L(M);
  std::vector<cfg::Cfg> Cfgs =
      layer("cfg.build", [&] { return sim::buildAllCfgs(M); });

  std::unique_ptr<ipa::ModuleSummaries> Summaries;
  std::unique_ptr<classify::ModuleAnalysis> Analysis;
  if (Ipa) {
    ipa::IpaOptions IOpts;
    IOpts.Enable = true;
    Summaries = layer("ipa.summaries", [&] {
      return std::make_unique<ipa::ModuleSummaries>(M, L, IOpts);
    });
    Analysis = layer("ipa.patterns", [&] {
      return std::make_unique<classify::ModuleAnalysis>(
          M, ap::ApBuilderOptions(), IOpts);
    });
  } else {
    Analysis = layer("classify.analysis", [&] {
      return std::make_unique<classify::ModuleAnalysis>(M);
    });
  }
  const absint::InterprocInfo *Interproc = Summaries.get();

  // Delta_H with the static H5 frequency classes: no profile anywhere.
  classify::HeuristicOptions HOpts;
  std::map<masm::InstrRef, double> Scores = layer("classify.score", [&] {
    freq::StaticFreqOptions FOpts;
    FOpts.Ipa = Interproc;
    classify::ExecCountMap Counts =
        freq::StaticFreqEstimate(M, FOpts).loadExecCounts();
    return Analysis->scores(HOpts, &Counts);
  });
  std::vector<absint::FunctionAccessInfo> Access =
      layer("absint.access", [&] {
        return absint::collectModuleAccessInfo(M, L, Interproc);
      });
  auto Model = layer("camodel.build", [&] {
    return std::make_unique<camodel::CacheModel>(M, L, Interproc);
  });
  std::map<masm::InstrRef, camodel::Prediction> Preds =
      layer("camodel.predict",
            [&] { return Model->predict(sim::CacheConfig::baseline()); });
  prefetch::HintMap Hints = layer("prefetch.seed", [&] {
    return prefetch::buildStaticHints(M, L, Analysis->loadPatterns(),
                                      Interproc);
  });

  exec::Fnv1a H;
  for (const masm::Function &F : M.functions())
    R.Instrs += F.instrs().size();
  H.u64(R.Instrs).u64(Cfgs.size());
  for (const auto &[Ref, Phi] : Scores) {
    H.u32(Ref.FuncIdx).u32(Ref.InstrIdx).f64(Phi);
    if (Keep && classify::isPossiblyDelinquent(Phi, HOpts))
      Keep->Delta.insert(Ref);
  }
  for (const absint::FunctionAccessInfo &FI : Access)
    for (const absint::AccessSummary &A : FI.Accesses) {
      H.u32(A.Ref.FuncIdx).u32(A.Ref.InstrIdx).u8(uint8_t(A.Kind));
      ++R.Accesses;
      R.RegularAccesses += A.Kind != absint::AccessKind::Irregular;
    }
  for (const auto &[Ref, Pr] : Preds) {
    H.u32(Ref.FuncIdx).u32(Ref.InstrIdx).b(Pr.Known).f64(Pr.MissRatio);
    ++R.Predictions;
    R.KnownPredictions += Pr.Known;
  }
  for (const auto &[Ref, Hint] : Hints) {
    H.u32(Ref.FuncIdx).u32(Ref.InstrIdx).u8(uint8_t(Hint.Class));
    H.u32(uint32_t(Hint.StrideBytes));
    ++R.Hints;
    R.SeededHints += Hint.Class != prefetch::PatternClass::Unknown;
  }
  R.Digest = H.value();
  R.Ok = true;
  if (Keep) {
    Keep->Hints = std::move(Hints);
    Keep->M = std::move(CR.M);
  }
  return R;
}

/// Coverage and precision of one kept Delta_H against a plain run on the
/// paper's L1, and the load-miss cut of pcax armed on it with its seeds.
struct Quality {
  double Rho = 0, Pi = 0, Cut = 0;
  std::string Error;
};

Quality score(const Artifacts &A, const std::string &Name) {
  Quality Q;
  masm::Layout L(*A.M);
  sim::MachineOptions MO;
  MO.DCache = sim::CacheConfig::baseline();
  MO.MaxInstrs = RegistryMaxInstrs;
  sim::RunResult Plain = sim::Machine(*A.M, L, MO).run();
  MO.PrefetchLoads = A.Delta;
  MO.PrefetchPolicy = prefetch::Policy::Pcax;
  MO.PrefetchHints = A.Hints;
  sim::RunResult Armed = sim::Machine(*A.M, L, MO).run();
  if (!Plain.ok() || !Armed.ok() ||
      Armed.InstrsExecuted != Plain.InstrsExecuted ||
      Armed.Output != Plain.Output) {
    Q.Error = Name + ": pcax-armed run differs from the plain run";
    return Q;
  }
  metrics::EvalResult E =
      metrics::evaluate(A.M->countLoads(), A.Delta, Plain.loadStats(*A.M));
  Q.Rho = E.rho();
  Q.Pi = E.pi();
  Q.Cut = Plain.LoadMisses == 0
              ? 0.0
              : 1.0 - static_cast<double>(Armed.LoadMisses) /
                          static_cast<double>(Plain.LoadMisses);
  return Q;
}

/// The correctness reference, outside every timed section: the program
/// compiles at O0 and O1, neither build traps, and both print the same
/// output and exit the same way. A generated program may outrun its fuel;
/// the two builds then stop at different points, so only their common
/// output prefix must agree (the convention of the fuzz O0-vs-O1 oracle).
std::string checkOptLevels(const Program &P) {
  sim::RunResult Runs[2];
  for (unsigned Opt = 0; Opt != 2; ++Opt) {
    mcc::CompileOptions MOpts;
    MOpts.OptLevel = Opt;
    mcc::CompileResult CR = mcc::compile(P.Source, MOpts);
    if (!CR.ok())
      return P.Name + ": compile failed at O" + std::to_string(Opt) + ": " +
             CR.Errors;
    masm::Layout L(*CR.M);
    sim::MachineOptions MO;
    MO.MaxInstrs = P.Registry ? RegistryMaxInstrs : FuzzMaxInstrs;
    Runs[Opt] = sim::Machine(*CR.M, L, MO).run();
    if (Runs[Opt].Halt == sim::HaltReason::Trapped ||
        (P.Registry && !Runs[Opt].ok()))
      return P.Name + ": O" + std::to_string(Opt) +
             " run did not exit: " + Runs[Opt].TrapMessage;
  }
  if (Runs[0].ok() && Runs[1].ok()) {
    if (Runs[0].Output != Runs[1].Output ||
        Runs[0].ExitCode != Runs[1].ExitCode)
      return P.Name + ": O0 and O1 outputs differ";
    return {};
  }
  const std::string &A = Runs[0].Output, &B = Runs[1].Output;
  size_t Common = std::min(A.size(), B.size());
  if (A.compare(0, Common, B, 0, Common) != 0)
    return P.Name + ": O0 and O1 outputs differ before fuel ran out";
  return {};
}

} // namespace

void runStaticCorpus(const RunConfig &C, Report &R) {
  // Set-up: generate the corpus, several times; the median is setup_s.
  std::vector<Program> Progs;
  std::vector<double> Setups, RawSetups;
  for (unsigned Rep = 0; Rep != 5; ++Rep) {
    Calibrator Cal;
    Cal.sample(3);
    double T0 = nowSeconds();
    Progs = corpusPrograms(C.Seed, C.Scale);
    RawSetups.push_back(nowSeconds() - T0);
    Setups.push_back(RawSetups.back() / Cal.slowdown());
  }

  std::vector<Op> Ops;
  for (size_t P = 0; P != Progs.size(); ++P)
    for (unsigned Opt = 0; Opt != 2; ++Opt)
      for (bool Ipa : {false, true})
        Ops.push_back({P, Opt, Ipa});

  // Timed: whole passes over the corpus, the operations shared by
  // C.Threads closed-loop clients, until the time is spent and every
  // operation ran MinPasses times. Every pass must reproduce the first
  // pass's outputs, whichever thread ran them. The traced run alternates
  // untraced and traced passes so it can measure the tracing overhead.
  obs::Tracer &Tr = obs::Tracer::instance();
  obs::Counter &Contexts = obs::counters().counter("ipa.contexts");
  std::vector<uint64_t> Digests(Ops.size());
  // Per operation, its host-speed scaled and unscaled latency in each pass.
  std::vector<std::vector<double>> OpMs(Ops.size()), RawOpMs(Ops.size());
  std::vector<double> PassWall[2]; // [traced]
  // Per pass, host-speed scaled and unscaled operations per second, and the
  // kernel's median milliseconds.
  std::vector<double> Rates, RawRates, CalMs;
  OpResult Sum;
  uint64_t IpaOps = 0, ContextsSum = 0;
  double TimedWall = 0;
  uint64_t Begin = Tr.nowNs();
  for (unsigned Pass = 0;; ++Pass) {
    bool Traced = C.Trace && Pass % 2 == 1;
    std::vector<OpResult> Res(Ops.size());
    std::vector<double> Ms(Ops.size());
    uint64_t Ctx0 = Contexts.value();
    Calibrator Cal;
    if (Traced)
      Tr.enable();
    double PassStart = nowSeconds();
    std::vector<size_t> Order = passOrder(Ops.size(), C.Seed, Pass);
    parallelFor(Ops.size(), C.Threads, [&](size_t K) {
      size_t I = Order[K];
      const Op &O = Ops[I];
      Cal.maybeSample();
      double T0 = nowSeconds();
      Res[I] = layer("op.analyze",
                     [&] { return analyze(Progs[O.Prog], O.Opt, O.Ipa); });
      Ms[I] = (nowSeconds() - T0) * 1e3;
    });
    double Wall = nowSeconds() - PassStart;
    Tr.disable();
    PassWall[Traced].push_back(Wall);
    TimedWall += Wall;
    double Slow = Cal.slowdown();
    CalMs.push_back(Cal.medianMs());
    RawRates.push_back(static_cast<double>(Ops.size()) / Wall);
    Rates.push_back(RawRates.back() * Slow);
    for (size_t I = 0; I != Ops.size(); ++I) {
      RawOpMs[I].push_back(Ms[I]);
      OpMs[I].push_back(Ms[I] / Slow);
    }
    for (size_t I = 0; I != Ops.size(); ++I) {
      if (Pass == 0)
        Digests[I] = Res[I].Digest;
      ++R.Attempted;
      if (!Res[I].Ok || Res[I].Digest != Digests[I])
        R.fail(Progs[Ops[I].Prog].Name + "/O" + std::to_string(Ops[I].Opt) +
               (Ops[I].Ipa ? "/ipa" : "") +
               (Res[I].Ok ? ": analysis output changed between passes"
                          : ": compile failed"));
      if (!Traced)
        continue;
      Sum.Instrs += Res[I].Instrs;
      Sum.Accesses += Res[I].Accesses;
      Sum.RegularAccesses += Res[I].RegularAccesses;
      Sum.Predictions += Res[I].Predictions;
      Sum.KnownPredictions += Res[I].KnownPredictions;
      Sum.Hints += Res[I].Hints;
      Sum.SeededHints += Res[I].SeededHints;
      IpaOps += Ops[I].Ipa;
    }
    if (Traced)
      ContextsSum += Contexts.value() - Ctx0;
    bool BothSeen = !C.Trace || !PassWall[1].empty();
    if (Pass + 1 >= MinPasses && budgetSpent(TimedWall, Pass + 1, C.Seconds) &&
        BothSeen)
      break;
  }
  uint64_t End = Tr.nowNs();
  double PeakRss = peakRssMb();

  // The reference check, after the timed section so it adds to neither the
  // time nor the peak memory: O0 and O1 behave alike.
  double CheckStart = nowSeconds();
  std::vector<std::string> CheckErrors(Progs.size());
  parallelFor(Progs.size(), C.Threads,
              [&](size_t I) { CheckErrors[I] = checkOptLevels(Progs[I]); });
  for (const std::string &E : CheckErrors)
    R.check(E.empty(), E);

  // Quality, also outside the timed section: the registry operations are
  // analysed once more (each must reproduce its timed digest) and their
  // Delta_H and seeds scored against simulation.
  std::vector<size_t> RegOps;
  for (size_t I = 0; I != Ops.size(); ++I)
    if (Progs[Ops[I].Prog].Registry)
      RegOps.push_back(I);
  std::vector<Quality> Qs(RegOps.size());
  parallelFor(RegOps.size(), C.Threads, [&](size_t K) {
    const Op &O = Ops[RegOps[K]];
    std::string Name = Progs[O.Prog].Name + "/O" + std::to_string(O.Opt) +
                       (O.Ipa ? "/ipa" : "");
    Artifacts Keep;
    OpResult Again = analyze(Progs[O.Prog], O.Opt, O.Ipa, &Keep);
    if (!Again.Ok || Again.Digest != Digests[RegOps[K]])
      Qs[K].Error = Name + ": analysis output differs from the timed passes";
    else
      Qs[K] = score(Keep, Name);
  });
  double RhoSum = 0, PiSum = 0, CutSum = 0;
  for (const Quality &Q : Qs) {
    R.check(Q.Error.empty(), Q.Error);
    RhoSum += Q.Rho;
    PiSum += Q.Pi;
    CutSum += Q.Cut;
  }
  double NQ = static_cast<double>(Qs.size());
  double CheckSec = nowSeconds() - CheckStart;

  if (!C.Trace) {
    R.add("setup_s", median(Setups), "s");
    R.add("peak_rss_mb", PeakRss, "MiB");
    R.add("ok_frac", 1.0 - ratio(R.Failed, R.Attempted), "frac");
    std::vector<double> Lat, RawLat;
    for (size_t I = 0; I != Ops.size(); ++I) {
      Lat.push_back(median(OpMs[I]));
      RawLat.push_back(median(RawOpMs[I]));
    }
    // 3272 operations at full size leave ten samples beyond p99.
    double TailP = tailPercentile(Lat.size());
    R.add("op_ms_p50", percentile(Lat, 50), "ms");
    R.add("op_ms_tail", percentile(Lat, TailP), "ms");
    R.add("ops_per_s", median(Rates), "1/s");
    R.add("rho_pct", 100.0 * RhoSum / NQ, "%");
    R.add("pi_pct", 100.0 * PiSum / NQ, "%");
    R.add("pcax_miss_cut_pct", 100.0 * CutSum / NQ, "%");
    std::fprintf(stderr,
                 "static_corpus: %zu programs, %zu ops x %zu passes in "
                 "%.2f s; checks %.2f s; op_ms_tail is p%.0f; "
                 "unscaled: setup %.4f s, p50 %.3f ms, p99 %.3f ms, %.1f "
                 "ops/s; calibration kernel %.3f ms\n",
                 Progs.size(), Lat.size(), Rates.size(), TimedWall, CheckSec,
                 TailP, median(RawSetups),
                 percentile(RawLat, 50), percentile(RawLat, 99),
                 median(RawRates), median(CalMs));
    return;
  }

  SpanAnalysis A = reportTrace("static_corpus", Begin, End, PassWall,
                               C.Threads, median(CalMs), R);
  uint64_t Compiles = A.ByName["mcc.compile"].Count;
  R.add("mcc.compile_ms", meanMs(A, "mcc.compile"), "ms");
  R.add("mcc.instrs_emitted", ratio(Sum.Instrs, Compiles), "count");
  R.add("cfg.build_ms", meanMs(A, "cfg.build"), "ms");
  R.add("classify.analysis_ms", meanMs(A, "classify.analysis"), "ms");
  R.add("classify.score_ms", meanMs(A, "classify.score"), "ms");
  R.add("ipa.summaries_ms", meanMs(A, "ipa.summaries"), "ms");
  R.add("ipa.patterns_ms", meanMs(A, "ipa.patterns"), "ms");
  R.add("ipa.contexts", ratio(ContextsSum, IpaOps), "count");
  R.add("absint.access_ms", meanMs(A, "absint.access"), "ms");
  R.add("absint.known_frac", ratio(Sum.RegularAccesses, Sum.Accesses),
        "frac");
  R.add("camodel.build_ms", meanMs(A, "camodel.build"), "ms");
  R.add("camodel.predict_ms", meanMs(A, "camodel.predict"), "ms");
  R.add("camodel.known_frac", ratio(Sum.KnownPredictions, Sum.Predictions),
        "frac");
  R.add("prefetch.seed_ms", meanMs(A, "prefetch.seed"), "ms");
  R.add("prefetch.seeded_frac", ratio(Sum.SeededHints, Sum.Hints), "frac");
}

} // namespace perfbench
