//===- perfbench/src/Layers.h - per-layer accounting from spans -----------===//
//
// The traced run records an obs::Span around every call the benchmark makes
// into a module's public entry point (see layer() in Bench.h). This file
// folds the recorded spans into per-layer count, total and self time, and
// measures how much of the timed wall time no layer span covers.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Bench.h"

#include "obs/Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct LayerTotals {
  uint64_t Count = 0;
  double TotalMs = 0;
  double SelfMs = 0; ///< Total minus the time child bench spans cover.
};

struct SpanAnalysis {
  std::map<std::string, LayerTotals> ByName;
  /// Per (span name, "prog" attribute) for spans that carry one.
  std::map<std::pair<std::string, std::string>, LayerTotals> ByProg;
  /// Thread-seconds covered by layer spans: per thread, the union of its
  /// layer spans, summed over threads.
  double CoveredSec = 0;
};

/// The traced run's epilogue, shared by every workload: folds the spans
/// recorded in [BeginNs, EndNs], prints the layer table and reports
/// trace.uncovered_pct (the share of the worker capacity, \p Threads x
/// traced wall time, that no layer span covers: glue code, queueing and
/// workers left idle by load imbalance), trace.overhead_pct (median traced
/// minus median untraced pass wall time, as a share of the untraced one)
/// and host.calib_ms. \p PassWall holds the untraced [0] and traced [1]
/// pass (or session) wall times.
SpanAnalysis reportTrace(const std::string &Workload, uint64_t BeginNs,
                         uint64_t EndNs,
                         const std::vector<double> (&PassWall)[2],
                         unsigned Threads, double CalMs, Report &R);

/// True for the metrics reportTrace() adds, which describe a traced run as
/// a whole rather than one layer.
inline bool isRunMetric(const std::string &Name) {
  return Name.rfind("trace.", 0) == 0 || Name.rfind("host.", 0) == 0;
}

/// Mean milliseconds per call of span \p Name (0 when never called).
double meanMs(const SpanAnalysis &A, const std::string &Name);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
