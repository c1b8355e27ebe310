#include "stats/distribution.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "stats/expect.h"

namespace gplus::stats {

std::vector<CurvePoint> integer_ccdf(std::span<const std::uint64_t> values) {
  if (values.empty()) return {};
  std::map<std::uint64_t, std::uint64_t> counts;
  for (auto v : values) ++counts[v];
  std::vector<CurvePoint> out;
  out.reserve(counts.size());
  const auto n = static_cast<double>(values.size());
  std::uint64_t at_or_above = values.size();
  for (const auto& [value, count] : counts) {
    out.push_back(
        {static_cast<double>(value), static_cast<double>(at_or_above) / n});
    at_or_above -= count;
  }
  return out;
}

std::vector<CurvePoint> empirical_cdf(std::span<const double> values) {
  if (values.empty()) return {};
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<CurvePoint> out;
  const auto n = static_cast<double>(sorted.size());
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    out.push_back({sorted[i], static_cast<double>(j) / n});
    i = j;
  }
  return out;
}

std::vector<CurvePoint> empirical_ccdf(std::span<const double> values) {
  if (values.empty()) return {};
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<CurvePoint> out;
  const auto n = static_cast<double>(sorted.size());
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    out.push_back({sorted[i], static_cast<double>(sorted.size() - i) / n});
    i = j;
  }
  return out;
}

double evaluate_step(std::span<const CurvePoint> cdf, double x) noexcept {
  double y = 0.0;
  for (const auto& p : cdf) {
    if (p.x > x) break;
    y = p.y;
  }
  return y;
}

std::vector<CurvePoint> log_binned_ccdf(std::span<const std::uint64_t> values,
                                        double base) {
  GPLUS_EXPECT(base > 1.0, "log base must exceed 1");
  if (values.empty()) return {};
  const auto n = static_cast<double>(values.size());
  std::uint64_t max_v = *std::max_element(values.begin(), values.end());
  if (max_v == 0) return {{0.0, 1.0}};

  // Bin k covers [base^k, base^{k+1}); values of 0 get their own point.
  std::size_t zero_count = 0;
  std::map<int, std::uint64_t> bins;
  for (auto v : values) {
    if (v == 0) {
      ++zero_count;
      continue;
    }
    const int k = static_cast<int>(std::floor(std::log(static_cast<double>(v)) /
                                              std::log(base)));
    ++bins[k];
  }

  std::vector<CurvePoint> out;
  std::uint64_t at_or_above = values.size();
  if (zero_count > 0) {
    out.push_back({0.0, 1.0});
    at_or_above -= zero_count;
  }
  for (const auto& [k, count] : bins) {
    const double lo = std::pow(base, k);
    const double hi = std::pow(base, k + 1);
    out.push_back({std::sqrt(lo * hi), static_cast<double>(at_or_above) / n});
    at_or_above -= count;
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)) {
  GPLUS_EXPECT(hi > lo, "histogram range must be non-empty");
  GPLUS_EXPECT(bins > 0, "need at least one bin");
  counts_.assign(bins, 0);
}

void Histogram::add(double x) noexcept {
  std::size_t bin;
  if (x < lo_) {
    bin = 0;
  } else if (x >= hi_) {
    bin = counts_.size() - 1;
  } else {
    bin = static_cast<std::size_t>((x - lo_) / width_);
    bin = std::min(bin, counts_.size() - 1);
  }
  ++counts_[bin];
  ++total_;
}

std::uint64_t Histogram::count(std::size_t bin) const {
  GPLUS_EXPECT(bin < counts_.size(), "bin out of range");
  return counts_[bin];
}

double Histogram::bin_center(std::size_t bin) const {
  GPLUS_EXPECT(bin < counts_.size(), "bin out of range");
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::mass(std::size_t bin) const {
  GPLUS_EXPECT(bin < counts_.size(), "bin out of range");
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[bin]) / static_cast<double>(total_);
}

std::vector<double> integer_pmf(std::span<const std::uint64_t> values) {
  if (values.empty()) return {};
  const std::uint64_t max_v = *std::max_element(values.begin(), values.end());
  std::vector<double> pmf(static_cast<std::size_t>(max_v) + 1, 0.0);
  for (auto v : values) pmf[static_cast<std::size_t>(v)] += 1.0;
  for (auto& p : pmf) p /= static_cast<double>(values.size());
  return pmf;
}

}  // namespace gplus::stats
