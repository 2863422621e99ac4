//===- perfbench/src/Calibration.h - host-speed calibration ---------------===//
//
// On a shared 4-vCPU x86-64 virtual machine the host's speed drifts by
// 20-30% over minutes, and unrelated code slows down alike: a random-access
// kernel and an ordered-map kernel correlated at r = 0.96 over 10-sample
// windows. So every pass also times a fixed kernel that calls nothing in
// src/, on the threads doing the work, and each timing is scaled by the
// kernel's reference duration over its median duration in that pass (or
// set-up repetition), raised to SlowdownExponent. A change to the program
// leaves the kernel alone, so it still moves the scaled timings by its full
// amount.
//
// The exponent: the host also switches for minutes at a time between a
// fast and a slow state (kernel medians near 1.0 and 1.6 ms), and across
// that switch every workload slowed more than the kernel did. Raw latencies
// grew as the kernel's duration to the power 1.34 (static_corpus p50),
// 1.47 (sim_validate p50) and about 1.5 (store_replay queries per second);
// scaling with the plain ratio left sim_validate 30% slower in the slow
// state.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CALIBRATION_H
#define PERFBENCH_CALIBRATION_H

#include <mutex>
#include <vector>

namespace perfbench {

/// Collects kernel durations; thread-safe.
class Calibrator {
public:
  /// Times the kernel \p Times times on the calling thread.
  void sample(unsigned Times = 1);
  /// Times it when this thread's previous sample is at least 0.2 s old, so
  /// sampling costs about 1% of a thread's time.
  void maybeSample();
  /// Median kernel duration over the reference duration, raised to
  /// SlowdownExponent: above 1 when the host runs slower than when the
  /// reference was taken.
  double slowdown() const;
  /// Median kernel milliseconds.
  double medianMs() const;

private:
  mutable std::mutex Mu;
  std::vector<double> Samples;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATION_H
