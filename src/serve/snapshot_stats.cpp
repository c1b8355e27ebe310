#include "serve/snapshot_stats.h"

#include <algorithm>
#include <unordered_map>

namespace gplus::serve {

namespace {

std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted_hist(
    const std::unordered_map<std::uint64_t, std::uint64_t>& counts) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out(counts.begin(),
                                                           counts.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

SnapshotDegreeStats snapshot_degree_stats(const SnapshotView& view) {
  SnapshotDegreeStats stats;
  const std::size_t n = view.node_count();
  stats.nodes = n;
  stats.edges = view.edge_count();
  std::unordered_map<std::uint64_t, std::uint64_t> out_counts;
  std::unordered_map<std::uint64_t, std::uint64_t> in_counts;
  std::uint64_t out_sum = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    const graph::NodeId u = view.rank_to_node(r);
    const std::uint64_t od = view.out_degree(u);
    const std::uint64_t id = view.in_degree(u);
    ++out_counts[od];
    ++in_counts[id];
    out_sum += od;
    stats.max_out_degree = std::max(stats.max_out_degree, od);
    stats.max_in_degree = std::max(stats.max_in_degree, id);
  }
  stats.mean_out_degree =
      n == 0 ? 0.0 : static_cast<double>(out_sum) / static_cast<double>(n);
  stats.out_degree_hist = sorted_hist(out_counts);
  stats.in_degree_hist = sorted_hist(in_counts);
  return stats;
}

}  // namespace gplus::serve
