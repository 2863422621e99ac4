//===- perfbench/src/Inputs.h - seeded workload inputs --------------------===//
//
// Every input a workload feeds the program is derived here from the
// benchmark seed alone, so one seed always yields byte-identical inputs.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "Bench.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One MinC source the benchmark analyses or simulates.
struct Program {
  std::string Name;   ///< "fuzz-17" or a registry name such as "mcf_like".
  std::string Source; ///< Fully instantiated MinC text.
  bool Registry = false;
};

/// The registry workloads (all 18, or a two-program subset at smoke size),
/// each on its input1 parameters with `SEED` replaced by a value derived
/// from \p Seed.
std::vector<Program> registryPrograms(uint64_t Seed, Size S);

/// The static_corpus inputs: fuzz::generateProgram programs with the
/// interprocedural bias on, followed by registryPrograms().
std::vector<Program> corpusPrograms(uint64_t Seed, Size S);

/// A seeded permutation of [0, N): the order in which pass \p Pass hands
/// operations to the clients. Varying it per pass spreads the heavy
/// operations differently each time, so no pass depends on one pattern of
/// which operations run side by side.
std::vector<size_t> passOrder(size_t N, uint64_t Seed, unsigned Pass);

/// The classification threshold of store_replay session \p Session: a
/// value in (0.12, 0.57) no earlier session and no cold-fill query used.
double sessionDelta(uint64_t Seed, unsigned Session);

/// FNV-1a over every generated input of \p Workload (sources, names and
/// the first few session thresholds), for the determinism check.
uint64_t inputsDigest(const std::string &Workload, uint64_t Seed, Size S);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
