#include "stats/discrete.h"

#include <algorithm>

#include "stats/expect.h"

namespace gplus::stats {

std::vector<double> normalize_weights(std::span<const double> weights) {
  GPLUS_EXPECT(!weights.empty(), "weights must be non-empty");
  double total = 0.0;
  for (double w : weights) {
    GPLUS_EXPECT(w >= 0.0, "weights must be nonnegative");
    total += w;
  }
  GPLUS_EXPECT(total > 0.0, "at least one weight must be positive");
  std::vector<double> out(weights.begin(), weights.end());
  for (auto& w : out) w /= total;
  return out;
}

DiscreteDistribution::DiscreteDistribution(std::span<const double> weights)
    : norm_(normalize_weights(weights)) {
  const std::size_t n = norm_.size();
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);

  // Vose's alias method: partition scaled probabilities into small/large,
  // pair each small bucket with a large donor.
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i)
    scaled[i] = norm_[i] * static_cast<double>(n);

  std::vector<std::size_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    small.pop_back();
    const std::size_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::size_t i : large) prob_[i] = 1.0;
  for (std::size_t i : small) prob_[i] = 1.0;  // numerical leftovers
}

std::size_t DiscreteDistribution::sample(Rng& rng) const noexcept {
  const std::size_t column =
      static_cast<std::size_t>(rng.next_below(prob_.size()));
  return rng.next_double() < prob_[column] ? column : alias_[column];
}

double DiscreteDistribution::probability(std::size_t i) const {
  GPLUS_EXPECT(i < norm_.size(), "category out of range");
  return norm_[i];
}

}  // namespace gplus::stats
