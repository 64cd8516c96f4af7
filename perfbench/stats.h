#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// \file
/// Order statistics over the benchmark's own raw samples.
///
/// Every percentile the benchmark reports is an exact order statistic
/// (nearest rank) of samples it timed itself. The program's `/metrics`
/// histograms are never used for this: their quantiles interpolate
/// inside power-of-two buckets and can exceed the observed maximum.
///
/// A percentile counts as supported only when at least `kMinBeyond`
/// samples lie above the rank it picks; a p99 over 200 samples would be
/// the second-largest sample, i.e. noise.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie above a reported percentile's rank.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of quantile `q` (0 < q <= 1) among `n` samples.
inline std::size_t NearestRank(std::size_t n, double q) {
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples above the rank quantile `q` picks among `n` samples.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

/// True iff quantile `q` of `n` samples has at least `kMinBeyond`
/// samples beyond it.
inline bool Supported(std::size_t n, double q) {
  return n > 0 && SamplesBeyond(n, q) >= kMinBeyond;
}

/// Fewest samples for which quantile `q` is supported.
inline std::size_t MinSamplesFor(double q) {
  std::size_t n = 1;
  while (!Supported(n, q)) ++n;
  return n;
}

/// A sorted copy of raw samples with exact order statistics.
class Samples {
 public:
  Samples() = default;
  explicit Samples(std::vector<double> values) : values_(std::move(values)) {
    std::sort(values_.begin(), values_.end());
  }
  std::size_t size() const { return values_.size(); }
  double min() const { return values_.empty() ? 0 : values_.front(); }
  double max() const { return values_.empty() ? 0 : values_.back(); }
  /// The nearest-rank quantile `q`; 0 for an empty set.
  double Quantile(double q) const {
    return values_.empty() ? 0 : values_[NearestRank(values_.size(), q) - 1];
  }

 private:
  std::vector<double> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
