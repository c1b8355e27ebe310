#include "algo/degrees.h"

#include <algorithm>

namespace gplus::algo::degree_detail {

DegreeDistribution make_distribution(const std::vector<std::uint64_t>& degrees,
                                     std::uint64_t fit_x_min) {
  DegreeDistribution out;
  out.ccdf = stats::integer_ccdf(degrees);
  if (!degrees.empty()) {
    struct TotalMax {
      std::uint64_t total = 0;
      std::uint64_t max = 0;
    };
    const auto agg = core::parallel_reduce(
        degrees.size(), kDegreeGrain, TotalMax{},
        [&](std::size_t begin, std::size_t end, TotalMax& acc) {
          for (std::size_t i = begin; i < end; ++i) {
            acc.total += degrees[i];
            acc.max = std::max(acc.max, degrees[i]);
          }
        },
        [](TotalMax& into, const TotalMax& from) {
          into.total += from.total;
          into.max = std::max(into.max, from.max);
        });
    out.max = agg.max;
    out.mean =
        static_cast<double>(agg.total) / static_cast<double>(degrees.size());
  }
  // The log-log regression needs at least two distinct degree values in the
  // fit range; tiny or regular graphs simply get a zeroed fit.
  std::size_t fit_points = 0;
  for (const auto& p : out.ccdf) {
    if (p.x >= static_cast<double>(fit_x_min) && p.y > 0.0) ++fit_points;
  }
  if (fit_points >= 2) {
    out.power_law = stats::fit_power_law_ccdf(degrees, fit_x_min);
  }
  return out;
}

}  // namespace gplus::algo::degree_detail
