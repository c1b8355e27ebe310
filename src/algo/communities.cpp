#include "algo/communities.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "algo/graph_view.h"
#include "stats/expect.h"

namespace gplus::algo {

using graph::DiGraph;
using graph::NodeId;

std::vector<std::uint64_t> Partition::sizes() const {
  std::vector<std::uint64_t> out(community_count, 0);
  for (auto l : label) ++out[l];
  return out;
}

namespace {

// Compact labels to [0, k) preserving identity.
Partition compact(std::vector<std::uint32_t> raw) {
  std::unordered_map<std::uint32_t, std::uint32_t> remap;
  remap.reserve(raw.size());
  for (auto& l : raw) {
    const auto [it, inserted] =
        remap.try_emplace(l, static_cast<std::uint32_t>(remap.size()));
    l = it->second;
  }
  Partition p;
  p.label = std::move(raw);
  p.community_count = remap.size();
  return p;
}

}  // namespace

Partition label_propagation(const DiGraph& g, stats::Rng& rng,
                            std::size_t max_rounds) {
  const std::size_t n = g.node_count();
  const DiGraphView view(g);
  std::vector<std::uint32_t> label(n);
  std::iota(label.begin(), label.end(), 0U);
  if (n == 0) return compact(std::move(label));

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});

  std::unordered_map<std::uint32_t, std::uint32_t> votes;
  std::vector<std::uint32_t> best_labels;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    rng.shuffle(order);
    bool changed = false;
    for (NodeId u : order) {
      votes.clear();
      for_each_union_neighbor(
          view, u, [&](NodeId v, std::uint8_t) { ++votes[label[v]]; });
      if (votes.empty()) continue;
      std::uint32_t best_count = 0;
      for (const auto& [l, c] : votes) best_count = std::max(best_count, c);
      best_labels.clear();
      for (const auto& [l, c] : votes) {
        if (c == best_count) best_labels.push_back(l);
      }
      const std::uint32_t pick =
          best_labels[static_cast<std::size_t>(rng.next_below(best_labels.size()))];
      if (pick != label[u]) {
        label[u] = pick;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return compact(std::move(label));
}

Partition partition_from_labels(std::span<const std::uint32_t> labels) {
  return compact(std::vector<std::uint32_t>(labels.begin(), labels.end()));
}

double normalized_mutual_information(const Partition& a, const Partition& b) {
  GPLUS_EXPECT(a.label.size() == b.label.size(),
               "partitions must cover the same node set");
  const std::size_t n = a.label.size();
  if (n == 0) return 1.0;

  // Joint counts.
  std::unordered_map<std::uint64_t, std::uint64_t> joint;
  joint.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ++joint[(static_cast<std::uint64_t>(a.label[i]) << 32) | b.label[i]];
  }
  const auto sizes_a = a.sizes();
  const auto sizes_b = b.sizes();
  const auto dn = static_cast<double>(n);

  auto entropy = [&](const std::vector<std::uint64_t>& sizes) {
    double h = 0.0;
    for (auto s : sizes) {
      if (s == 0) continue;
      const double p = static_cast<double>(s) / dn;
      h -= p * std::log(p);
    }
    return h;
  };
  const double ha = entropy(sizes_a);
  const double hb = entropy(sizes_b);
  if (ha == 0.0 && hb == 0.0) return 1.0;  // both trivial partitions
  if (ha == 0.0 || hb == 0.0) return 0.0;

  double mi = 0.0;
  for (const auto& [key, count] : joint) {
    const auto la = static_cast<std::uint32_t>(key >> 32);
    const auto lb = static_cast<std::uint32_t>(key);
    const double pij = static_cast<double>(count) / dn;
    const double pi = static_cast<double>(sizes_a[la]) / dn;
    const double pj = static_cast<double>(sizes_b[lb]) / dn;
    mi += pij * std::log(pij / (pi * pj));
  }
  return mi / std::sqrt(ha * hb);
}

double modularity(const DiGraph& g, const Partition& partition) {
  GPLUS_EXPECT(partition.label.size() == g.node_count(),
               "partition must cover the graph");
  const std::size_t n = g.node_count();
  if (n == 0) return 0.0;

  // Undirected degree and within-community edge mass.
  std::vector<std::uint64_t> degree(n, 0);
  std::uint64_t two_m = 0;
  std::vector<double> internal(partition.community_count, 0.0);
  std::vector<double> degree_sum(partition.community_count, 0.0);
  const DiGraphView view(g);
  for (NodeId u = 0; u < n; ++u) {
    for_each_union_neighbor(view, u, [&](NodeId v, std::uint8_t) {
      ++degree[u];
      ++two_m;
      if (partition.label[u] == partition.label[v]) {
        internal[partition.label[u]] += 1.0;  // counted from both sides
      }
    });
  }
  if (two_m == 0) return 0.0;
  for (NodeId u = 0; u < n; ++u) {
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
