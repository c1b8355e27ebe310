// Directed clustering coefficient (§3.3.3, Figure 4b).
//
// The paper defines C(u) as the probability that two of u's *outgoing*
// neighbors are themselves connected, normalizing by the maximum
// |OS(u)|·(|OS(u)|−1) ordered pairs; only nodes with |OS(u)| > 1 qualify.
// The numerator therefore counts directed edges among out-neighbors.
// Every entry is a template over a graph view (algo/graph_view.h), so C(u)
// comes off a DiGraph or straight off a flat, compressed or mmap'd
// snapshot.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "algo/graph_view.h"
#include "algo/intersect.h"
#include "core/parallel.h"
#include "stats/distribution.h"
#include "stats/rng.h"
#include "stats/sampling.h"

namespace gplus::algo {

namespace clustering_detail {

/// C(u) with caller-owned row scratch (see out_row).
template <class View>
std::optional<double> coefficient(const View& view, graph::NodeId u,
                                  std::vector<graph::NodeId>& outs_scratch,
                                  std::vector<graph::NodeId>& row_scratch) {
  const auto outs = out_row(view, u, outs_scratch);
  if (outs.size() <= 1) return std::nullopt;
  // Directed edges from each out-neighbor a to the other out-neighbors:
  // |outs ∩ out(a)| through the shared intersection, less the two common
  // elements that are not "other" out-neighbors — a itself (a self-loop
  // on a) and u (when u has a self-loop, so u ∈ outs, and a → u).
  const bool u_looped = std::binary_search(outs.begin(), outs.end(), u);
  std::uint64_t links = 0;
  for (const graph::NodeId a : outs) {
    if (a == u) continue;
    const auto row = out_row(view, a, row_scratch);
    links += intersect_count(outs, row);
    if (std::binary_search(row.begin(), row.end(), a)) --links;
    if (u_looped && std::binary_search(row.begin(), row.end(), u)) --links;
  }
  const auto k = static_cast<double>(outs.size());
  return static_cast<double>(links) / (k * (k - 1.0));
}

}  // namespace clustering_detail

/// C(u) for one node, or nullopt when out_degree(u) <= 1. Throws
/// std::invalid_argument when `u` is out of range.
template <class View>
std::optional<double> clustering_coefficient(const View& view,
                                             graph::NodeId u) {
  check_node(view, u);
  std::vector<graph::NodeId> outs_scratch;
  std::vector<graph::NodeId> row_scratch;
  return clustering_detail::coefficient(view, u, outs_scratch, row_scratch);
}

/// Exact C(u) over every qualifying node, ascending node id.
template <class View>
std::vector<double> clustering_coefficients(const View& view) {
  const std::size_t n = view.node_count();
  // Each C(u) is independent: compute into per-node slots on the pool,
  // then compact serially in node order — same output as the serial loop.
  std::vector<std::optional<double>> slots(n);
  core::parallel_for(n, 512, [&](std::size_t begin, std::size_t end) {
    std::vector<graph::NodeId> outs_scratch;
    std::vector<graph::NodeId> row_scratch;
    for (auto u = static_cast<graph::NodeId>(begin); u < end; ++u) {
      slots[u] =
          clustering_detail::coefficient(view, u, outs_scratch, row_scratch);
    }
  });
  std::vector<double> out;
  for (const auto& c : slots) {
    if (c) out.push_back(*c);
  }
  return out;
}

/// C(u) over a uniform sample of qualifying nodes — the paper computes the
/// Figure 4(b) CDF from a 1M-node sample. Returns at most `sample_size`
/// values; fewer when the graph has fewer qualifying nodes.
template <class View>
std::vector<double> sampled_clustering_coefficients(const View& view,
                                                    std::size_t sample_size,
                                                    stats::Rng& rng) {
  std::vector<graph::NodeId> qualifying;
  for (graph::NodeId u = 0; u < view.node_count(); ++u) {
    if (view.out_degree(u) > 1) qualifying.push_back(u);
  }
  // The sample is drawn up front, so each pick computes into its own slot
  // regardless of which lane runs it; output order matches the serial path.
  std::vector<graph::NodeId> picked;
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
                       std::vector<graph::NodeId> outs_scratch;
                       std::vector<graph::NodeId> row_scratch;
                       for (std::size_t i = begin; i < end; ++i) {
                         out[i] = *clustering_detail::coefficient(
                             view, picked[i], outs_scratch, row_scratch);
                       }
                     });
  return out;
}

/// Mean C(u) over qualifying nodes (0 when none qualify).
template <class View>
double average_clustering_coefficient(const View& view) {
  const auto values = clustering_coefficients(view);
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

/// Figure 4(b): empirical CDF of sampled C(u).
template <class View>
std::vector<stats::CurvePoint> clustering_cdf(const View& view,
                                              std::size_t sample_size,
                                              stats::Rng& rng) {
  return stats::empirical_cdf(
      sampled_clustering_coefficients(view, sample_size, rng));
}

}  // namespace gplus::algo
