#include "algo/clustering.h"

#include "algo/intersect.h"
#include "core/parallel.h"
#include "stats/sampling.h"

namespace gplus::algo {

using graph::DiGraph;
using graph::NodeId;

std::optional<double> clustering_coefficient(const DiGraph& g, NodeId u) {
  const auto outs = g.out_neighbors(u);
  if (outs.size() <= 1) return std::nullopt;
  // Directed edges from each out-neighbor a to the other out-neighbors:
  // |outs ∩ out(a)| through the shared intersection, less the two common
  // elements that are not "other" out-neighbors — a itself (a self-loop
  // on a) and u (when u has a self-loop, so u ∈ outs, and a → u).
  const bool u_looped = g.has_edge(u, u);
  std::uint64_t links = 0;
  for (const NodeId a : outs) {
    if (a == u) continue;
    links += intersect_count(outs, g.out_neighbors(a));
    if (g.has_edge(a, a)) --links;
    if (u_looped && g.has_edge(a, u)) --links;
  }
  const auto k = static_cast<double>(outs.size());
  return static_cast<double>(links) / (k * (k - 1.0));
}

std::vector<double> clustering_coefficients(const DiGraph& g) {
  const std::size_t n = g.node_count();
  // Each C(u) is independent: compute into per-node slots on the pool,
  // then compact serially in node order — same output as the serial loop.
  std::vector<std::optional<double>> slots(n);
  core::parallel_for(n, 512, [&](std::size_t begin, std::size_t end) {
    for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
      slots[u] = clustering_coefficient(g, u);
    }
  });
  std::vector<double> out;
  for (const auto& c : slots) {
    if (c) out.push_back(*c);
  }
  return out;
}

std::vector<double> sampled_clustering_coefficients(const DiGraph& g,
                                                    std::size_t sample_size,
                                                    stats::Rng& rng) {
  std::vector<NodeId> qualifying;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (g.out_degree(u) > 1) qualifying.push_back(u);
  }
  // The sample is drawn up front, so each pick computes into its own slot
  // regardless of which lane runs it; output order matches the serial path.
  std::vector<NodeId> picked;
  if (qualifying.size() <= sample_size) {
    picked = std::move(qualifying);
  } else {
    const auto picks =
        stats::sample_without_replacement(qualifying.size(), sample_size, rng);
    picked.reserve(picks.size());
    for (std::size_t idx : picks) picked.push_back(qualifying[idx]);
  }
  std::vector<double> out(picked.size());
  core::parallel_for(picked.size(), 256,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         out[i] = *clustering_coefficient(g, picked[i]);
                       }
                     });
  return out;
}

double average_clustering_coefficient(const DiGraph& g) {
  const auto values = clustering_coefficients(g);
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

std::vector<stats::CurvePoint> clustering_cdf(const DiGraph& g,
                                              std::size_t sample_size,
                                              stats::Rng& rng) {
  return stats::empirical_cdf(sampled_clustering_coefficients(g, sample_size, rng));
}

}  // namespace gplus::algo
