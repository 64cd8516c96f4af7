// Invariant test for the benchmark's order statistics: over random sample
// sets, min <= p50 <= p99 <= max, every quantile is one of the samples,
// and a percentile is supported exactly when ten samples lie beyond it.
//
//   cmake --build <build dir> --target perfbench_stats_test && ctest

#include <cstdio>
#include <random>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, std::size_t trial) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL trial %zu: %s\n", trial, what);
  }
}

}  // namespace

int main() {
  std::mt19937_64 rng(20261017);
  for (std::size_t trial = 0; trial < 2000; ++trial) {
    std::size_t n = 1 + rng() % 3000;
    std::vector<double> raw(n);
    // Heavy-tailed values with ties, like latencies with merge spikes.
    std::lognormal_distribution<double> spread(0.0, 1.5);
    for (double& v : raw) v = std::round(spread(rng) * 100.0) / 100.0;
    perfbench::Samples samples(raw);
    double p50 = samples.Quantile(0.50);
    double p99 = samples.Quantile(0.99);
    Expect(samples.min() <= p50, "min <= p50", trial);
    Expect(p50 <= p99, "p50 <= p99", trial);
    Expect(p99 <= samples.max(), "p99 <= max", trial);
    Expect(samples.Quantile(1.0) == samples.max(), "p100 == max", trial);
    bool found = false;
    for (double v : raw) found = found || v == p99;
    Expect(found, "p99 is an observed sample", trial);
    for (double q : {0.5, 0.9, 0.99}) {
      std::size_t rank = perfbench::NearestRank(n, q);
      std::size_t beyond = n - rank;
      Expect(perfbench::Supported(n, q) == (beyond >= perfbench::kMinBeyond),
             "supported iff ten samples beyond", trial);
    }
  }
  Expect(perfbench::MinSamplesFor(0.50) == 20, "p50 needs 20 samples", 0);
  Expect(perfbench::MinSamplesFor(0.99) == 1000, "p99 needs 1000 samples", 0);
  Expect(perfbench::Samples().Quantile(0.5) == 0, "empty set reads 0", 0);
  if (failures != 0) return 1;
  std::printf("perfbench_stats_test: ok\n");
  return 0;
}
