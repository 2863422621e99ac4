//===- perfbench/src/Stats.h - sample statistics and result rendering -----===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include "Bench.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile \p P (in (0, 100]) of \p Samples: the value at
/// sorted index ceil(P/100 * n) - 1. Returns 0 for an empty sample.
double percentile(std::vector<double> Samples, double P);

double median(std::vector<double> Samples);

/// \p Num / \p Den, or 0 when \p Den is 0.
inline double ratio(double Num, double Den) {
  return Den == 0 ? 0 : Num / Den;
}

/// Samples ranked strictly above the nearest-rank percentile \p P of \p N
/// samples: N - ceil(P/100 * N).
uint64_t samplesBeyond(uint64_t N, double P);

/// The percentile rule: the highest of 99.9, 99, 90 and 50 that has at
/// least ten samples beyond it, or 0 when even the median has fewer.
double highestReportablePercentile(uint64_t N);

/// The percentile op_ms_tail reports for \p N latency samples: the
/// percentile rule, capped at 99 so the metric keeps its meaning when a
/// faster program answers more queries in the same time, and at least 50
/// for the tiny smoke size.
double tailPercentile(uint64_t N);

/// Metric names use only [A-Za-z0-9_.-], start with a letter or digit and
/// are at most 64 characters long.
bool validMetricName(const std::string &Name);

/// The single JSON line the benchmark ends its stdout with.
std::string resultLine(const Report &R);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
