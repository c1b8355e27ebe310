#include "stats/sampling.h"

#include <unordered_set>

#include "stats/expect.h"

namespace gplus::stats {

std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                    std::size_t k, Rng& rng) {
  GPLUS_EXPECT(k <= n, "cannot sample more distinct items than exist");
  // Floyd's algorithm: for j = n-k .. n-1, draw t in [0, j]; insert t unless
  // already present, in which case insert j.
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(k * 2);
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::size_t>(rng.next_below(j + 1));
    const std::size_t pick = chosen.contains(t) ? j : t;
    chosen.insert(pick);
    out.push_back(pick);
  }
  rng.shuffle(out);
  return out;
}

std::vector<std::size_t> sample_with_replacement(std::size_t n, std::size_t k,
                                                 Rng& rng) {
  GPLUS_EXPECT(n > 0, "population must be non-empty");
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(static_cast<std::size_t>(rng.next_below(n)));
  }
  return out;
}

}  // namespace gplus::stats
