#include "stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace perfbench {

namespace {
size_t NearestRank(size_t n, double p) {
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}
}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.n = samples.size();
  s.p50 = Percentile(samples, 50);
  s.p95 = Percentile(samples, 95);
  s.p99 = Percentile(samples, 99);
  s.p99_supported = SamplesBeyond(s.n, 99) >= 10;
  return s;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 ||
      !std::isalnum(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

}  // namespace perfbench
