#ifndef AGENTFIRST_PERFBENCH_STATS_H_
#define AGENTFIRST_PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it (p in (0, 100]). 0 for an empty input.
double Percentile(std::vector<double> samples, double p);

/// How many samples lie strictly above the nearest-rank p-th percentile of n
/// samples: n - ceil(p/100 * n).
size_t SamplesBeyond(size_t n, double p);

/// A timing reported the way the benchmark reports every timing: median,
/// p95 and p99 with the sample count, and whether p99 has the ten samples
/// beyond it that make it a percentile rather than a maximum.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  bool p99_supported = false;
};
LatencySummary Summarize(const std::vector<double>& samples);

/// True when `name` is a valid metric name: [A-Za-z0-9_.-]+, starting with a
/// letter or digit, at most 64 characters.
bool ValidMetricName(const std::string& name);

}  // namespace perfbench

#endif  // AGENTFIRST_PERFBENCH_STATS_H_
