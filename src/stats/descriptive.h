// Descriptive statistics over numeric samples.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/rng.h"

namespace gplus::stats {

/// Summary statistics of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  // population variance when count < 2, else sample
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Computes count/mean/sample-variance/stddev/min/max. Empty input yields a
/// zeroed summary.
Summary summarize(std::span<const double> values) noexcept;

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> values) noexcept;

/// Sample standard deviation (n-1 denominator); 0 when count < 2.
double sample_stddev(std::span<const double> values) noexcept;

/// `q`-quantile in [0,1] by linear interpolation on a *copy* of the data.
/// Requires non-empty input.
double quantile(std::span<const double> values, double q);

/// Median (0.5 quantile). Requires non-empty input.
double median(std::span<const double> values);

/// Pearson correlation coefficient of paired samples (same non-zero length,
/// each with nonzero variance — otherwise returns 0).
double pearson_correlation(std::span<const double> x,
                           std::span<const double> y);

/// Two-sample Kolmogorov-Smirnov statistic: the maximum absolute gap
/// between the two samples' empirical CDFs, in [0, 1]. 0 = identical
/// distributions. Used to compare a crawled sample's degree distribution
/// against the population's. Requires two non-empty samples.
double ks_two_sample(std::span<const double> a, std::span<const double> b);

/// Gini coefficient of a nonnegative sample: 0 = perfectly equal,
/// -> 1 = all mass on one element. Measures audience concentration
/// ("a small fraction of individuals have disproportionately large number
/// of neighbors", §3.3.1). Requires non-empty input with nonnegative
/// values and positive total.
double gini_coefficient(std::span<const double> values);

/// Bootstrap percentile confidence interval for the mean.
struct BootstrapCi {
  double mean = 0.0;
  double lower = 0.0;  // 2.5th percentile of resampled means
  double upper = 0.0;  // 97.5th percentile
};

/// Percentile bootstrap: resamples `values` with replacement `iterations`
/// times and reports the 95% interval of the resampled means. Requires a
/// non-empty sample and at least 20 iterations.
BootstrapCi bootstrap_mean_ci(std::span<const double> values,
                              std::size_t iterations, Rng& rng);

/// Online mean/variance accumulator (Welford). Suitable for streaming large
/// per-edge statistics without materializing the sample.
class RunningStats {
 public:
  /// Adds one observation.
  void add(double x) noexcept;

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1); 0 when count < 2.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }

  /// Merges another accumulator (parallel Welford / Chan's method).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace gplus::stats
