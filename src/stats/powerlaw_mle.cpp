#include "stats/powerlaw_mle.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/expect.h"

namespace gplus::stats {

namespace {

// KS distance between the empirical tail CCDF (samples sorted, >= x_min)
// and the continuous-approximation model CCDF (x / (x_min - 0.5))^(1-alpha).
double ks_distance(const std::vector<std::uint64_t>& tail, double alpha,
                   std::uint64_t x_min) {
  const double shift = static_cast<double>(x_min) - 0.5;
  const auto n = static_cast<double>(tail.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < tail.size(); ++i) {
    // Empirical CDF just above tail[i].
    const double empirical = static_cast<double>(i + 1) / n;
    const double model =
        1.0 - std::pow(static_cast<double>(tail[i]) / shift, 1.0 - alpha);
    worst = std::max(worst, std::abs(empirical - model));
  }
  return worst;
}

}  // namespace

PowerLawMle fit_power_law_mle(std::span<const std::uint64_t> values,
                              std::uint64_t x_min) {
  GPLUS_EXPECT(x_min >= 1, "x_min must be >= 1");
  std::vector<std::uint64_t> tail;
  for (auto v : values) {
    if (v >= x_min) tail.push_back(v);
  }
  GPLUS_EXPECT(tail.size() >= 2, "need at least two tail samples");
  std::sort(tail.begin(), tail.end());

  // The 0.5 continuity shift keeps every log term positive, so even an
  // all-constant tail yields a finite (very large) alpha.
  const double shift = static_cast<double>(x_min) - 0.5;
  double log_sum = 0.0;
  for (auto v : tail) log_sum += std::log(static_cast<double>(v) / shift);

  PowerLawMle fit;
  fit.x_min = x_min;
  fit.tail_samples = tail.size();
  fit.alpha = 1.0 + static_cast<double>(tail.size()) / log_sum;
  fit.ks_distance = ks_distance(tail, fit.alpha, x_min);
  return fit;
}

PowerLawMle fit_power_law_auto(std::span<const std::uint64_t> values,
                               std::size_t max_candidates) {
  GPLUS_EXPECT(max_candidates >= 1, "need at least one candidate");
  // Distinct positive values as candidate thresholds.
  std::vector<std::uint64_t> distinct(values.begin(), values.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  while (!distinct.empty() && distinct.front() == 0) {
    distinct.erase(distinct.begin());
  }
  GPLUS_EXPECT(distinct.size() >= 2, "need at least two distinct values");

  // Log-spaced subset of candidates (skip the top decade: too few samples).
  std::vector<std::uint64_t> candidates;
  const std::size_t usable = distinct.size() - distinct.size() / 10;
  const double step = std::max(
      1.0, static_cast<double>(usable) / static_cast<double>(max_candidates));
  for (double i = 0; i < static_cast<double>(usable); i += step) {
    candidates.push_back(distinct[static_cast<std::size_t>(i)]);
  }

  PowerLawMle best;
  bool found = false;
  for (auto x_min : candidates) {
    std::size_t tail_n = 0;
    for (auto v : values) tail_n += v >= x_min;
    if (tail_n < 10) continue;  // KS unstable on tiny tails
    PowerLawMle fit;
    try {
      fit = fit_power_law_mle(values, x_min);
    } catch (const std::invalid_argument&) {
      continue;  // degenerate tail at this threshold
    }
    if (!found || fit.ks_distance < best.ks_distance) {
      best = fit;
      found = true;
    }
  }
  GPLUS_EXPECT(found, "no viable threshold found");
  return best;
}

}  // namespace gplus::stats
