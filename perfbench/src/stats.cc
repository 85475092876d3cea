#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

Percentile NearestRank(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  p.supported = p.beyond >= kMinBeyond;
  return p;
}

double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 0.5).value;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace perfbench
