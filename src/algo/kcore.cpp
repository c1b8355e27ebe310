#include "algo/kcore.h"

#include <algorithm>

#include "algo/graph_view.h"

namespace gplus::algo {

using graph::DiGraph;
using graph::NodeId;

std::uint64_t CoreDecomposition::core_size(std::uint32_t k) const noexcept {
  std::uint64_t n = 0;
  for (auto c : coreness) n += c >= k;
  return n;
}

CoreDecomposition k_core_decomposition(const DiGraph& g) {
  const std::size_t n = g.node_count();
  const DiGraphView view(g);
  CoreDecomposition result;
  result.coreness.assign(n, 0);
  if (n == 0) return result;

  // Undirected degree: |out ∪ in| minus self-loops.
  std::vector<std::uint32_t> degree(n, 0);
  std::uint32_t max_degree = 0;
  for (NodeId u = 0; u < n; ++u) {
    std::uint32_t d = 0;
    for_each_union_neighbor(view, u, [&](NodeId, std::uint8_t) { ++d; });
    degree[u] = d;
    max_degree = std::max(max_degree, d);
  }

  // Batagelj-Zaveršnik peeling: counting-sort nodes by degree, then remove
  // in ascending (current) degree order, sliding decremented neighbors one
  // bucket down via a swap with their bucket's first element.
  std::vector<std::uint64_t> bin(max_degree + 1, 0);  // bucket start index
  for (NodeId u = 0; u < n; ++u) ++bin[degree[u]];
  {
    std::uint64_t start = 0;
    for (std::uint32_t d = 0; d <= max_degree; ++d) {
      const std::uint64_t count = bin[d];
      bin[d] = start;
      start += count;
    }
  }
  std::vector<NodeId> vert(n);        // nodes sorted by current degree
  std::vector<std::uint64_t> pos(n);  // position of each node in vert
  {
    auto cursor = bin;
    for (NodeId u = 0; u < n; ++u) {
      pos[u] = cursor[degree[u]]++;
      vert[pos[u]] = u;
    }
  }

  for (std::uint64_t i = 0; i < n; ++i) {
    const NodeId v = vert[i];
    result.coreness[v] = degree[v];
    result.degeneracy = std::max(result.degeneracy, degree[v]);
    for_each_union_neighbor(view, v, [&](NodeId u, std::uint8_t) {
      if (degree[u] <= degree[v]) return;  // peeled or at the current level
      const std::uint32_t du = degree[u];
      const std::uint64_t pu = pos[u];
      const std::uint64_t pw = bin[du];
      const NodeId w = vert[pw];
      if (u != w) {
        vert[pu] = w;
        vert[pw] = u;
        pos[u] = pw;
        pos[w] = pu;
      }
      ++bin[du];
      --degree[u];
    });
  }
  return result;
}

}  // namespace gplus::algo
