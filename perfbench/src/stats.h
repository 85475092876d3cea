#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile with its sample support. The value is the
/// smallest sample such that at least `q` of all samples lie at or below
/// it (rank ceil(q * n), 1-based). It counts only when at least
/// `kMinBeyond` samples lie strictly beyond its rank.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
  bool supported = false;
};

inline constexpr size_t kMinBeyond = 10;

/// `samples` need not be sorted. q is in (0, 1]. Empty input gives an
/// unsupported zero.
Percentile NearestRank(std::vector<double> samples, double q);

/// Nearest-rank median; 0 for no samples.
double Median(std::vector<double> samples);

double Mean(const std::vector<double>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
