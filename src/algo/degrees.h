// Degree statistics (§3.3.1, Figure 3, Table 4). Every entry is a template
// over a graph view (algo/graph_view.h), so the degree power laws come off
// a DiGraph or straight off a flat, compressed or mmap'd snapshot.
#pragma once

#include <cstdint>
#include <vector>

#include "algo/graph_view.h"
#include "core/parallel.h"
#include "stats/distribution.h"
#include "stats/regression.h"

namespace gplus::algo {

/// Summary of one direction's degree distribution, as reported in Fig. 3
/// and Table 4: the per-value CCDF, the mean, the maximum, and the paper's
/// log-log power-law fit.
struct DegreeDistribution {
  std::vector<stats::CurvePoint> ccdf;
  double mean = 0.0;
  std::uint64_t max = 0;
  stats::PowerLawFit power_law;
};

namespace degree_detail {

// Degree fills are pure per-slot writes; one coarse grain fits both.
inline constexpr std::size_t kDegreeGrain = 8192;

template <class Degree>
std::vector<std::uint64_t> fill(std::size_t n, Degree degree) {
  std::vector<std::uint64_t> d(n);
  core::parallel_for(n, kDegreeGrain, [&](std::size_t begin, std::size_t end) {
    for (auto u = static_cast<graph::NodeId>(begin); u < end; ++u) {
      d[u] = degree(u);
    }
  });
  return d;
}

/// CCDF, mean, max and the power-law fit of one degree sequence.
DegreeDistribution make_distribution(const std::vector<std::uint64_t>& degrees,
                                     std::uint64_t fit_x_min);

}  // namespace degree_detail

/// In-degrees of every node, indexed by node id.
template <class View>
std::vector<std::uint64_t> in_degrees(const View& view) {
  return degree_detail::fill(view.node_count(), [&](graph::NodeId u) {
    return static_cast<std::uint64_t>(view.in_degree(u));
  });
}

/// Out-degrees of every node, indexed by node id.
template <class View>
std::vector<std::uint64_t> out_degrees(const View& view) {
  return degree_detail::fill(view.node_count(), [&](graph::NodeId u) {
    return static_cast<std::uint64_t>(view.out_degree(u));
  });
}

/// Distribution of in-degrees. `fit_x_min` bounds the power-law fit range.
template <class View>
DegreeDistribution in_degree_distribution(const View& view,
                                          std::uint64_t fit_x_min = 1) {
  return degree_detail::make_distribution(in_degrees(view), fit_x_min);
}

/// Distribution of out-degrees.
template <class View>
DegreeDistribution out_degree_distribution(const View& view,
                                           std::uint64_t fit_x_min = 1) {
  return degree_detail::make_distribution(out_degrees(view), fit_x_min);
}

}  // namespace gplus::algo
