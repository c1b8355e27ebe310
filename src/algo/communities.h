// Community detection (label propagation) and partition comparison.
//
// The synthetic generator plants ground-truth structure — countries,
// cities, and the small offline communities friend edges concentrate in.
// Label propagation (Raghavan et al.) recovers communities without
// parameters in near-linear time; normalized mutual information then
// quantifies how much of the planted structure the topology alone
// reveals — the quantitative side of §4's "social links are correlated in
// geography" finding. Label propagation and modularity are templates over
// a graph view (algo/graph_view.h): DiGraph or any snapshot format.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <unordered_map>
#include <vector>

#include "algo/graph_view.h"
#include "stats/expect.h"
#include "stats/rng.h"

namespace gplus::algo {

/// A node partition: label per node, labels relabeled to [0, count).
struct Partition {
  std::vector<std::uint32_t> label;
  std::size_t community_count = 0;

  /// Size of each community.
  std::vector<std::uint64_t> sizes() const;
};

namespace community_detail {

/// Compacts labels to [0, k) in first-seen order.
Partition compact(std::vector<std::uint32_t> raw);

}  // namespace community_detail

/// Asynchronous label propagation over the undirected view: every node
/// adopts its neighbors' majority label (ties broken at random) until no
/// labels change or `max_rounds` passes elapse.
template <class View>
Partition label_propagation(const View& view, stats::Rng& rng,
                            std::size_t max_rounds = 32) {
  const std::size_t n = view.node_count();
  std::vector<std::uint32_t> label(n);
  std::iota(label.begin(), label.end(), 0U);
  if (n == 0) return community_detail::compact(std::move(label));

  std::vector<graph::NodeId> order(n);
  std::iota(order.begin(), order.end(), graph::NodeId{0});

  std::unordered_map<std::uint32_t, std::uint32_t> votes;
  std::vector<std::uint32_t> best_labels;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    rng.shuffle(order);
    bool changed = false;
    for (graph::NodeId u : order) {
      votes.clear();
      for_each_union_neighbor(
          view, u, [&](graph::NodeId v, std::uint8_t) { ++votes[label[v]]; });
      if (votes.empty()) continue;
      std::uint32_t best_count = 0;
      for (const auto& [l, c] : votes) best_count = std::max(best_count, c);
      best_labels.clear();
      for (const auto& [l, c] : votes) {
        if (c == best_count) best_labels.push_back(l);
      }
      const std::uint32_t pick = best_labels[static_cast<std::size_t>(
          rng.next_below(best_labels.size()))];
      if (pick != label[u]) {
        label[u] = pick;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return community_detail::compact(std::move(label));
}

/// Builds a Partition from externally supplied labels (e.g. planted
/// country ids); labels are compacted.
Partition partition_from_labels(std::span<const std::uint32_t> labels);

/// Normalized mutual information between two partitions of the same node
/// set, in [0, 1]; 1 = identical partitions, ~0 = independent. By
/// convention two all-singleton or two one-block partitions compare as 1.
double normalized_mutual_information(const Partition& a, const Partition& b);

/// Modularity of a partition on the undirected view of `view` (Newman);
/// higher = denser within communities than a degree-preserving null.
template <class View>
double modularity(const View& view, const Partition& partition) {
  GPLUS_EXPECT(partition.label.size() == view.node_count(),
               "partition must cover the graph");
  const std::size_t n = view.node_count();
  if (n == 0) return 0.0;

  // Undirected degree and within-community edge mass.
  std::vector<std::uint64_t> degree(n, 0);
  std::uint64_t two_m = 0;
  std::vector<double> internal(partition.community_count, 0.0);
  std::vector<double> degree_sum(partition.community_count, 0.0);
  for (graph::NodeId u = 0; u < n; ++u) {
    for_each_union_neighbor(view, u, [&](graph::NodeId v, std::uint8_t) {
      ++degree[u];
      ++two_m;
      if (partition.label[u] == partition.label[v]) {
        internal[partition.label[u]] += 1.0;  // counted from both sides
      }
    });
  }
  if (two_m == 0) return 0.0;
  for (graph::NodeId u = 0; u < n; ++u) {
    degree_sum[partition.label[u]] += static_cast<double>(degree[u]);
  }
  const auto m2 = static_cast<double>(two_m);
  double q = 0.0;
  for (std::size_t c = 0; c < partition.community_count; ++c) {
    q += internal[c] / m2 - (degree_sum[c] / m2) * (degree_sum[c] / m2);
  }
  return q;
}

}  // namespace gplus::algo
