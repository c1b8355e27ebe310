// Sampling utilities used by the estimators.
//
// The paper samples throughout: 1M random nodes for clustering coefficients,
// 2k→10k BFS sources for the hop distribution, 20M random user pairs for the
// path-mile baseline. These helpers provide uniform index samples (with and
// without replacement) and reservoir sampling for streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stats/rng.h"

namespace gplus::stats {

/// `k` distinct indices drawn uniformly from {0..n-1}, in random order.
/// Requires k <= n. Uses Floyd's algorithm: O(k) memory even for huge n.
std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                    std::size_t k, Rng& rng);

/// `k` indices drawn uniformly with replacement from {0..n-1}.
std::vector<std::size_t> sample_with_replacement(std::size_t n, std::size_t k,
                                                 Rng& rng);

/// Uniform reservoir sampler (Algorithm R) over a stream of T.
template <typename T>
class ReservoirSampler {
 public:
  /// Capacity `k` >= 1.
  explicit ReservoirSampler(std::size_t k, Rng& rng)
      : capacity_(k), rng_(&rng) {
    GPLUS_EXPECT(k >= 1, "reservoir capacity must be positive");
    sample_.reserve(k);
  }

  /// Offers one stream element.
  void add(const T& value) {
    ++seen_;
    if (sample_.size() < capacity_) {
      sample_.push_back(value);
      return;
    }
    const std::uint64_t j = rng_->next_below(seen_);
    if (j < capacity_) sample_[static_cast<std::size_t>(j)] = value;
  }

  /// Elements retained so far (uniform over the stream seen so far).
  const std::vector<T>& sample() const noexcept { return sample_; }
  std::uint64_t seen() const noexcept { return seen_; }

 private:
  std::size_t capacity_;
  Rng* rng_;
  std::uint64_t seen_ = 0;
  std::vector<T> sample_;
};

}  // namespace gplus::stats
