//===- perfbench/src/Calibration.cpp -------------------------------------===//

#include "Calibration.h"

#include "Bench.h"
#include "Stats.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>

namespace perfbench {

namespace {

/// The kernel's median duration on the reference host (shared 4-vCPU x86-64 VM,
/// four busy worker threads). It only sets the scale of scaled timings.
constexpr double KernelRefSec = 0.00125;

/// How much more the workloads slow down than the kernel; see
/// Calibration.h.
constexpr double SlowdownExponent = 1.45;

std::atomic<uint64_t> Sink{0};

/// Random reads and writes in a 256 KiB table, then ordered-map churn:
/// the cache and allocator traffic the analyses and the simulator make.
double kernelSeconds() {
  thread_local std::vector<uint32_t> Table(1u << 16);
  double T0 = nowSeconds();
  uint64_t X = 0x9E3779B97F4A7C15ull, S = 0;
  for (unsigned I = 0; I != 100000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    S += Table[X & 0xFFFF]++;
  }
  std::map<uint32_t, uint32_t> M;
  for (unsigned I = 0; I != 4000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    M[static_cast<uint32_t>(X)] += I;
  }
  for (const auto &[K, V] : M)
    S += K ^ V;
  Sink.fetch_add(S, std::memory_order_relaxed);
  return nowSeconds() - T0;
}

} // namespace

void Calibrator::sample(unsigned Times) {
  for (unsigned I = 0; I != Times; ++I) {
    double Sec = kernelSeconds();
    std::lock_guard<std::mutex> Lock(Mu);
    Samples.push_back(Sec);
  }
}

void Calibrator::maybeSample() {
  thread_local double Last = 0;
  double Now = nowSeconds();
  if (Now - Last < 0.2)
    return;
  sample();
  Last = nowSeconds();
}

double Calibrator::slowdown() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Samples.empty()
             ? 1.0
             : std::pow(median(Samples) / KernelRefSec, SlowdownExponent);
}

double Calibrator::medianMs() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return median(Samples) * 1e3;
}

} // namespace perfbench
