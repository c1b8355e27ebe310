// k-core decomposition.
//
// The k-core is the maximal subgraph where every node has (undirected)
// degree >= k; coreness profiles separate a network's dense social nucleus
// from its casual periphery. For the Google+ snapshot this quantifies the
// "active core vs sign-up-and-leave shell" structure that also drives the
// giant-SCC fraction of §3.3.4. The peeling is a template over a graph
// view (algo/graph_view.h): DiGraph or any snapshot format.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algo/graph_view.h"

namespace gplus::algo {

/// Result of the k-core peeling.
struct CoreDecomposition {
  /// coreness[u]: the largest k such that u belongs to the k-core
  /// (undirected degree = in-degree + out-degree, reciprocal edges counted
  /// once).
  std::vector<std::uint32_t> coreness;
  /// Largest coreness in the graph (the degeneracy).
  std::uint32_t degeneracy = 0;

  /// Number of nodes with coreness >= k.
  std::uint64_t core_size(std::uint32_t k) const noexcept;
};

/// Batagelj-Zaveršnik linear-time peeling over the undirected view.
template <class View>
CoreDecomposition k_core_decomposition(const View& view) {
  const std::size_t n = view.node_count();
  CoreDecomposition result;
  result.coreness.assign(n, 0);
  if (n == 0) return result;

  // Undirected degree: |out ∪ in| minus self-loops.
  std::vector<std::uint32_t> degree(n, 0);
  std::uint32_t max_degree = 0;
  for (graph::NodeId u = 0; u < n; ++u) {
    std::uint32_t d = 0;
    for_each_union_neighbor(view, u, [&](graph::NodeId, std::uint8_t) { ++d; });
    degree[u] = d;
    max_degree = std::max(max_degree, d);
  }

  // Batagelj-Zaveršnik peeling: counting-sort nodes by degree, then remove
  // in ascending (current) degree order, sliding decremented neighbors one
  // bucket down via a swap with their bucket's first element.
  std::vector<std::uint64_t> bin(max_degree + 1, 0);  // bucket start index
  for (graph::NodeId u = 0; u < n; ++u) ++bin[degree[u]];
  {
    std::uint64_t start = 0;
    for (std::uint32_t d = 0; d <= max_degree; ++d) {
      const std::uint64_t count = bin[d];
      bin[d] = start;
      start += count;
    }
  }
  std::vector<graph::NodeId> vert(n);  // nodes sorted by current degree
  std::vector<std::uint64_t> pos(n);   // position of each node in vert
  {
    auto cursor = bin;
    for (graph::NodeId u = 0; u < n; ++u) {
      pos[u] = cursor[degree[u]]++;
      vert[pos[u]] = u;
    }
  }

  for (std::uint64_t i = 0; i < n; ++i) {
    const graph::NodeId v = vert[i];
    result.coreness[v] = degree[v];
    result.degeneracy = std::max(result.degeneracy, degree[v]);
    for_each_union_neighbor(view, v, [&](graph::NodeId u, std::uint8_t) {
      if (degree[u] <= degree[v]) return;  // peeled or at the current level
      const std::uint32_t du = degree[u];
      const std::uint64_t pu = pos[u];
      const std::uint64_t pw = bin[du];
      const graph::NodeId w = vert[pw];
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
