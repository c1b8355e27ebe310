#include "algo/scc.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace gplus::algo {

using graph::DiGraph;
using graph::NodeId;

namespace {

std::uint64_t largest(const std::vector<std::uint64_t>& sizes) {
  if (sizes.empty()) return 0;
  return *std::max_element(sizes.begin(), sizes.end());
}

double fraction_of(const std::vector<std::uint64_t>& sizes) {
  const std::uint64_t total = std::accumulate(sizes.begin(), sizes.end(),
                                              std::uint64_t{0});
  if (total == 0) return 0.0;
  return static_cast<double>(largest(sizes)) / static_cast<double>(total);
}

}  // namespace

std::uint64_t SccResult::giant_size() const noexcept { return largest(sizes); }
double SccResult::giant_fraction() const noexcept { return fraction_of(sizes); }
std::uint64_t WccResult::giant_size() const noexcept { return largest(sizes); }
double WccResult::giant_fraction() const noexcept { return fraction_of(sizes); }

std::vector<stats::CurvePoint> scc_size_ccdf(const SccResult& sccs) {
  return stats::integer_ccdf(sccs.sizes);
}

namespace {

/// Minimal union-find with path halving + union by size.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
  }

  NodeId find(NodeId x) noexcept {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(NodeId a, NodeId b) noexcept {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<NodeId> parent_;
  std::vector<std::uint64_t> size_;
};

}  // namespace

WccResult weakly_connected_components(const DiGraph& g) {
  const std::size_t n = g.node_count();
  UnionFind uf(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.out_neighbors(u)) uf.unite(u, v);
  }

  WccResult result;
  result.component.assign(n, 0);
  constexpr std::uint32_t kUnassigned =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> root_to_comp(n, kUnassigned);
  for (NodeId u = 0; u < n; ++u) {
    const NodeId root = uf.find(u);
    if (root_to_comp[root] == kUnassigned) {
      root_to_comp[root] = static_cast<std::uint32_t>(result.sizes.size());
      result.sizes.push_back(0);
    }
    result.component[u] = root_to_comp[root];
    ++result.sizes[root_to_comp[root]];
  }
  return result;
}

}  // namespace gplus::algo
