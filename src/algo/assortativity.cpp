#include "algo/assortativity.h"

#include <cmath>
#include <vector>

#include "algo/degrees.h"

namespace gplus::algo {

using graph::DiGraph;
using graph::NodeId;

double degree_assortativity(const DiGraph& g, DegreeMode mode) {
  if (g.edge_count() == 0) return 0.0;
  const auto in = in_degrees(g);
  const auto out = out_degrees(g);

  const auto src_degree = [&](NodeId u) -> double {
    switch (mode) {
      case DegreeMode::kOutIn:
      case DegreeMode::kOutOut: return static_cast<double>(out[u]);
      default: return static_cast<double>(in[u]);
    }
  };
  const auto dst_degree = [&](NodeId v) -> double {
    switch (mode) {
      case DegreeMode::kOutIn:
      case DegreeMode::kInIn: return static_cast<double>(in[v]);
      default: return static_cast<double>(out[v]);
    }
  };

  // Single pass over edges: correlation of (src_degree, dst_degree).
  double sx = 0.0, sy = 0.0;
  const auto m = static_cast<double>(g.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const double du = src_degree(u);
    for (NodeId v : g.out_neighbors(u)) {
      sx += du;
      sy += dst_degree(v);
    }
  }
  const double mx = sx / m;
  const double my = sy / m;
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const double dx = src_degree(u) - mx;
    for (NodeId v : g.out_neighbors(u)) {
      const double dy = dst_degree(v) - my;
      sxy += dx * dy;
      sxx += dx * dx;
      syy += dy * dy;
    }
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> neighbor_degree_profile(const DiGraph& g,
                                            std::size_t max_k) {
  const auto in = in_degrees(g);
  std::vector<double> sum(max_k + 1, 0.0);
  std::vector<std::uint64_t> count(max_k + 1, 0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const std::size_t k = g.out_degree(u);
    if (k == 0 || k > max_k) continue;
    double total = 0.0;
    for (NodeId v : g.out_neighbors(u)) total += static_cast<double>(in[v]);
    sum[k] += total / static_cast<double>(k);
    ++count[k];
  }
  std::vector<double> profile(max_k + 1, 0.0);
  for (std::size_t k = 1; k <= max_k; ++k) {
    if (count[k] > 0) profile[k] = sum[k] / static_cast<double>(count[k]);
  }
  return profile;
}

}  // namespace gplus::algo
