//===- perfbench/src/Stats.cpp --------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

namespace perfbench {

static uint64_t nearestRank(uint64_t N, double P) {
  // ceil with a tolerance, so 99% of 1000 is rank 990 and not 991 through
  // floating-point error.
  double Exact = P / 100.0 * static_cast<double>(N);
  uint64_t Rank = static_cast<uint64_t>(std::ceil(Exact - 1e-9));
  return std::clamp<uint64_t>(Rank, 1, N);
}

double percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0;
  uint64_t Rank = nearestRank(Samples.size(), P);
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  return Samples[Rank - 1];
}

double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

uint64_t samplesBeyond(uint64_t N, double P) {
  return N == 0 ? 0 : N - nearestRank(N, P);
}

double highestReportablePercentile(uint64_t N) {
  for (double P : {99.9, 99.0, 90.0, 50.0})
    if (samplesBeyond(N, P) >= 10)
      return P;
  return 0;
}

double tailPercentile(uint64_t N) {
  return std::clamp(highestReportablePercentile(N), 50.0, 99.0);
}

bool validMetricName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64 || !std::isalnum(uint8_t(Name[0])))
    return false;
  return std::all_of(Name.begin(), Name.end(), [](char Ch) {
    return std::isalnum(uint8_t(Ch)) || Ch == '_' || Ch == '.' || Ch == '-';
  });
}

std::string resultLine(const Report &R) {
  std::string Out = "{\"correct\": ";
  Out += R.Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    char Num[64];
    // %.17g keeps every digit of the measured double.
    std::snprintf(Num, sizeof(Num), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Num +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

double peakRssMb() {
  struct rusage U = {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

} // namespace perfbench
