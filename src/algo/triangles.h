// Global triangle census and transitivity.
//
// §3.3.3 measures the per-node (local) clustering coefficient; the global
// transitivity ratio — 3 · triangles / connected triples — is its
// edge-weighted sibling and the number null-model comparisons are usually
// quoted in. Counted on the undirected view (any edge direction links two
// users), using the standard degree-ordered enumeration so every triangle
// is visited exactly once. The census is a view template
// (algo/graph_view.h), so it runs on a DiGraph and on every snapshot
// format alike.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algo/graph_view.h"
#include "core/parallel.h"
#include "graph/digraph.h"

namespace gplus::algo {

/// Census result.
struct TriangleCensus {
  /// Distinct undirected triangles.
  std::uint64_t triangles = 0;
  /// Connected triples (paths of length 2, centered anywhere).
  std::uint64_t triples = 0;

  /// Transitivity = 3 * triangles / triples (0 when no triples).
  double transitivity() const noexcept {
    return triples == 0 ? 0.0
                        : 3.0 * static_cast<double>(triangles) /
                              static_cast<double>(triples);
  }
};

namespace triangle_detail {

/// Per-node rows: rows[u] is an ascending id list.
using Rows = std::vector<std::vector<graph::NodeId>>;

/// Per-node row grain of the parallel passes.
inline constexpr std::size_t kRowGrain = 2048;

/// Forward lists over union rows `nbr` (ascending out∪in, self-loops
/// dropped): forward[u] keeps the neighbors ranked above u in the
/// (union degree, id) order, ascending. Each triangle then appears once,
/// at its lowest-ranked corner u, as v ∈ forward[u] and
/// w ∈ forward[u] ∩ forward[v]. Shared by this census and the triad
/// census (algo/motifs.h).
Rows forward_lists(const Rows& nbr);

/// Census over prebuilt union rows.
TriangleCensus census_from_rows(const Rows& nbr);

}  // namespace triangle_detail

/// Counts undirected triangles and connected triples of any view
/// (DiGraph, flat v2, compressed v3, mmap).
template <class View>
TriangleCensus count_triangles(const View& view) {
  const std::size_t n = view.node_count();
  triangle_detail::Rows nbr(n);
  core::parallel_for(
      n, triangle_detail::kRowGrain, [&](std::size_t begin, std::size_t end) {
        for (auto u = static_cast<graph::NodeId>(begin); u < end; ++u) {
          auto& row = nbr[u];
          row.reserve(view.out_degree(u) + view.in_degree(u));
          for_each_union_neighbor(view, u,
                                  [&](graph::NodeId v, std::uint8_t) {
                                    row.push_back(v);
                                  });
        }
      });
  return triangle_detail::census_from_rows(nbr);
}

}  // namespace gplus::algo
