//===- perfbench/src/Selftest.cpp - the benchmark's own unit checks -------===//
//
// `perfbench_run --selftest` checks the percentile rule, metric-name
// validation and seed determinism of the generated inputs. Exits 1 and
// names each failed check.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Stats.h"

#include <cstdio>
#include <numeric>

using namespace perfbench;

namespace {

unsigned Failures = 0;

void expect(bool Ok, const char *What) {
  if (!Ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", What);
    ++Failures;
  }
}

void percentileRule() {
  // p99 of 1000 samples leaves exactly ten beyond it; 999 leave nine.
  expect(samplesBeyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  expect(samplesBeyond(999, 99) == 9, "999 samples: 9 beyond p99");
  expect(highestReportablePercentile(1000) == 99, "1000 samples -> p99");
  expect(highestReportablePercentile(999) == 90, "999 samples -> p90");
  expect(highestReportablePercentile(10000) == 99.9, "10000 samples -> p99.9");
  expect(highestReportablePercentile(100) == 90, "100 samples -> p90");
  expect(highestReportablePercentile(99) == 50, "99 samples -> p50");
  expect(highestReportablePercentile(19) == 0, "19 samples -> none");
  expect(tailPercentile(10000) == 99, "tail: 10000 samples -> p99");
  expect(tailPercentile(108) == 90, "tail: 108 samples -> p90");
  expect(tailPercentile(12) == 50, "tail: 12 samples -> p50");

  std::vector<double> S(1000);
  std::iota(S.begin(), S.end(), 1.0); // 1..1000
  expect(percentile(S, 99) == 990, "nearest-rank p99 of 1..1000 is 990");
  expect(percentile(S, 50) == 500, "nearest-rank p50 of 1..1000 is 500");
  expect(percentile({7}, 99) == 7, "percentile of one sample");
  expect(percentile({}, 50) == 0, "percentile of no samples");
  expect(median({3, 1, 2}) == 2, "odd median");
  expect(median({4, 1, 2, 3}) == 2.5, "even median");
}

void metricNames() {
  for (const char *Good :
       {"setup_s", "op_ms_tail", "prefetch.run_ms.pcax", "jit.code_kb",
        "exec.job_wait_ms_p50", "a-b.c_d", "9lives"})
    expect(validMetricName(Good), Good);
  for (const char *Bad : {"", "_lead", ".lead", "has space", "slash/ed",
                          "pct%", "quote\"", "unicode\xc3\xa9"})
    expect(!validMetricName(Bad), Bad);
  expect(!validMetricName(std::string(65, 'a')), "65-character name");
  expect(validMetricName(std::string(64, 'a')), "64-character name");
}

void seedDeterminism() {
  for (const char *W : {"static_corpus", "sim_validate", "store_replay"}) {
    for (Size S : {Size::Smoke, Size::Full}) {
      expect(inputsDigest(W, 7, S) == inputsDigest(W, 7, S),
             "same seed, same inputs");
      expect(inputsDigest(W, 7, S) != inputsDigest(W, 8, S),
             "another seed, other inputs");
    }
  }
  std::vector<Program> A = corpusPrograms(42, Size::Smoke);
  std::vector<Program> B = corpusPrograms(42, Size::Smoke);
  bool Same = A.size() == B.size();
  for (size_t I = 0; Same && I != A.size(); ++I)
    Same = A[I].Name == B[I].Name && A[I].Source == B[I].Source;
  expect(Same, "corpus sources byte-identical for one seed");
  for (unsigned I = 0; I != 64; ++I) {
    double D = sessionDelta(5, I);
    expect(D > 0.12 && D < 0.57, "session delta inside (0.12, 0.57)");
    for (unsigned J = 0; J != I; ++J)
      expect(sessionDelta(5, J) != D, "session deltas never repeat");
  }
}

} // namespace

int runSelftest() {
  percentileRule();
  metricNames();
  seedDeterminism();
  std::printf("selftest: %s\n", Failures ? "FAILED" : "ok");
  return Failures ? 1 : 0;
}
