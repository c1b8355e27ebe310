#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "stats/expect.h"

namespace gplus::stats {

Summary summarize(std::span<const double> values) noexcept {
  RunningStats acc;
  for (double v : values) acc.add(v);
  Summary s;
  s.count = acc.count();
  s.mean = acc.mean();
  s.variance = acc.variance();
  s.stddev = acc.stddev();
  s.min = acc.min();
  s.max = acc.max();
  return s;
}

double mean(std::span<const double> values) noexcept {
  return summarize(values).mean;
}

double sample_stddev(std::span<const double> values) noexcept {
  return summarize(values).stddev;
}

double quantile(std::span<const double> values, double q) {
  GPLUS_EXPECT(!values.empty(), "quantile of empty sample");
  GPLUS_EXPECT(q >= 0.0 && q <= 1.0, "q must be in [0,1]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> values) { return quantile(values, 0.5); }

double pearson_correlation(std::span<const double> x,
                           std::span<const double> y) {
  GPLUS_EXPECT(x.size() == y.size(), "paired samples must have equal length");
  GPLUS_EXPECT(!x.empty(), "correlation of empty sample");
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

BootstrapCi bootstrap_mean_ci(std::span<const double> values,
                              std::size_t iterations, Rng& rng) {
  GPLUS_EXPECT(!values.empty(), "bootstrap of empty sample");
  GPLUS_EXPECT(iterations >= 20, "need at least 20 bootstrap iterations");
  BootstrapCi ci;
  ci.mean = mean(values);
  std::vector<double> means;
  means.reserve(iterations);
  const std::size_t n = values.size();
  for (std::size_t it = 0; it < iterations; ++it) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += values[static_cast<std::size_t>(rng.next_below(n))];
    }
    means.push_back(total / static_cast<double>(n));
  }
  ci.lower = quantile(means, 0.025);
  ci.upper = quantile(means, 0.975);
  return ci;
}

double ks_two_sample(std::span<const double> a, std::span<const double> b) {
  GPLUS_EXPECT(!a.empty() && !b.empty(), "KS needs two non-empty samples");
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  // Merge-walk both sorted samples, tracking the CDF gap at each step.
  const auto na = static_cast<double>(sa.size());
  const auto nb = static_cast<double>(sb.size());
  std::size_t i = 0, j = 0;
  double worst = 0.0;
  while (i < sa.size() && j < sb.size()) {
    const double x = std::min(sa[i], sb[j]);
    while (i < sa.size() && sa[i] <= x) ++i;
    while (j < sb.size() && sb[j] <= x) ++j;
    worst = std::max(worst, std::abs(static_cast<double>(i) / na -
                                     static_cast<double>(j) / nb));
  }
  return worst;
}

double gini_coefficient(std::span<const double> values) {
  GPLUS_EXPECT(!values.empty(), "gini of empty sample");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  GPLUS_EXPECT(sorted.front() >= 0.0, "values must be nonnegative");
  // G = (2 * Σ i*x_(i) / (n * Σ x)) - (n + 1)/n  with 1-based ranks.
  double total = 0.0, weighted = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    total += sorted[i];
    weighted += static_cast<double>(i + 1) * sorted[i];
  }
  GPLUS_EXPECT(total > 0.0, "total mass must be positive");
  const auto n = static_cast<double>(sorted.size());
  return 2.0 * weighted / (n * total) - (n + 1.0) / n;
}

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

}  // namespace gplus::stats
