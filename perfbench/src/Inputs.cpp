//===- perfbench/src/Inputs.cpp -------------------------------------------===//

#include "Inputs.h"

#include "exec/Hash.h"
#include "fuzz/Generator.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {

/// fuzz::generateProgram programs per static_corpus run.
constexpr unsigned CorpusFuzzPrograms = 800;
constexpr unsigned SmokeFuzzPrograms = 6;

/// Streams of mixSeed, one per generated input family.
enum Stream : uint64_t {
  RegistrySeedStream = 1,
  FuzzSeedStream = 2,
  DeltaStream = 3,
  OrderStream = 4,
};

/// Generated candidates per corpus program (see corpusPrograms).
constexpr unsigned StrataWidth = 4;

/// splitmix64 of \p Seed and a stream index: independent per-purpose seeds.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ull * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

} // namespace

std::vector<Program> registryPrograms(uint64_t Seed, Size S) {
  const auto &All = dlq::workloads::allWorkloads();
  std::vector<Program> Out;
  for (size_t I = 0; I != All.size(); ++I) {
    const dlq::workloads::Workload &W = All[I];
    // The smoke subset: two short-running programs, one pointer-chasing
    // and one array kernel.
    if (S == Size::Smoke && W.Name != "li_like" && W.Name != "art_like")
      continue;
    dlq::workloads::WorkloadInput In = W.Input1;
    uint64_t Mixed = mixSeed(mixSeed(Seed, RegistrySeedStream), I);
    In.Params["SEED"] = 1 + static_cast<long>(Mixed % 1000003);
    Out.push_back({W.Name, dlq::workloads::instantiate(W, In), true});
  }
  return Out;
}

std::vector<Program> corpusPrograms(uint64_t Seed, Size S) {
  unsigned N = S == Size::Smoke ? SmokeFuzzPrograms : CorpusFuzzPrograms;
  dlq::fuzz::GeneratorOptions Opts;
  Opts.InterprocDepth = 2;
  // A stratified draw: generate StrataWidth candidates per program, order
  // them by an analysis-cost proxy and take the middle one of each
  // consecutive group. Every seed's corpus then spans the generator's cost
  // distribution evenly, so the latency tail, which the few costliest
  // programs set, does not hinge on how many of them one seed happens to
  // draw. The proxy is the number of parentheses (conditions, calls,
  // grouped expressions): on a 418-program corpus it correlated with the
  // O1 analysis latency at r = 0.88, against 0.72 for the source length.
  // The 800 programs (twice the 400 of the first sizing) halve how much
  // the few costliest ones move the p99 latency from seed to seed.
  uint64_t Base = mixSeed(Seed, FuzzSeedStream);
  std::vector<std::string> Cands(N * StrataWidth);
  std::vector<size_t> Cost(Cands.size()), ByCost(Cands.size());
  for (size_t I = 0; I != Cands.size(); ++I) {
    Cands[I] = dlq::fuzz::generateProgram(mixSeed(Base, I), Opts);
    Cost[I] = std::count(Cands[I].begin(), Cands[I].end(), '(');
    ByCost[I] = I;
  }
  std::stable_sort(ByCost.begin(), ByCost.end(),
                   [&](size_t A, size_t B) { return Cost[A] < Cost[B]; });
  std::vector<Program> Out;
  for (unsigned G = 0; G != N; ++G) {
    size_t I = ByCost[G * StrataWidth + StrataWidth / 2];
    Out.push_back({"fuzz-" + std::to_string(I), std::move(Cands[I]), false});
  }
  for (Program &P : registryPrograms(Seed, S))
    Out.push_back(std::move(P));
  return Out;
}

std::vector<size_t> passOrder(size_t N, uint64_t Seed, unsigned Pass) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  dlq::Rng R(mixSeed(mixSeed(Seed, OrderStream), Pass));
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

double sessionDelta(uint64_t Seed, unsigned Session) {
  // A seed-chosen start plus golden-ratio steps: the fractions never
  // repeat, so every session's threshold (and its eval key) is new.
  double Start = static_cast<double>(mixSeed(Seed, DeltaStream) >> 11) *
                 0x1.0p-53;
  double Frac = Start + 0.6180339887498949 * Session;
  Frac -= static_cast<double>(static_cast<uint64_t>(Frac));
  return 0.12 + 0.45 * Frac;
}

uint64_t inputsDigest(const std::string &Workload, uint64_t Seed, Size S) {
  dlq::exec::Fnv1a H;
  H.str(Workload);
  // store_replay queries the registry's own inputs through the pipeline
  // driver; only its session thresholds come from the seed.
  if (Workload == "store_replay") {
    for (unsigned I = 0; I != 64; ++I)
      H.f64(sessionDelta(Seed, I));
    return H.value();
  }
  std::vector<Program> Ps = Workload == "static_corpus"
                                ? corpusPrograms(Seed, S)
                                : registryPrograms(Seed, S);
  for (const Program &P : Ps)
    H.str(P.Name).str(P.Source);
  return H.value();
}

} // namespace perfbench
