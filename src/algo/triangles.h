// Global triangle census and transitivity.
//
// §3.3.3 measures the per-node (local) clustering coefficient; the global
// transitivity ratio — 3 · triangles / connected triples — is its
// edge-weighted sibling and the number null-model comparisons are usually
// quoted in. Counted on the undirected view (any edge direction links two
// users), using the standard degree-ordered enumeration so every triangle
// is visited exactly once. The census is a view template
// (algo/graph_view.h), so it runs on a DiGraph and on every snapshot
// format alike. Its flat rows and triangle walk (triangle_detail) are
// shared with the directed triad census (algo/motifs.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "algo/graph_view.h"
#include "core/parallel.h"
#include "graph/digraph.h"
#include "stats/expect.h"

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

/// Per-node row grain of the parallel passes.
inline constexpr std::size_t kRowGrain = 2048;

/// Flat adjacency rows, each neighbor stored beside the 2-bit dyad code
/// of the pair (for_each_union_neighbor, algo/graph_view.h): row u is
/// nbr[offset[u], offset[u] + degree[u]), ascending, and
/// code[offset[u] + i] the code of (u, nbr[offset[u] + i]). A row's slots
/// are sized by an upper bound on its length, so unused slots may follow
/// it.
struct FlatRows {
  std::vector<std::size_t> offset;
  std::vector<std::uint32_t> degree;
  std::vector<graph::NodeId> nbr;
  std::vector<std::uint8_t> code;

  std::size_t node_count() const noexcept { return degree.size(); }
  std::span<const graph::NodeId> row(graph::NodeId u) const noexcept {
    return {nbr.data() + offset[u], degree[u]};
  }
  std::span<const std::uint8_t> codes(graph::NodeId u) const noexcept {
    return {code.data() + offset[u], degree[u]};
  }

  /// Sizes the arrays for `nodes` rows, row u with bound(u) slots.
  /// Entries already in `degree` are kept.
  template <class Bound>
  void lay_out(std::size_t nodes, Bound&& bound) {
    offset.resize(nodes);
    degree.resize(nodes);
    std::size_t slots = 0;
    for (std::size_t u = 0; u < nodes; ++u) {
      offset[u] = slots;
      slots += bound(static_cast<graph::NodeId>(u));
    }
    nbr.resize(slots);
    code.resize(slots);
  }
};

/// Union rows of any view: row u is u's ascending out∪in neighbors,
/// self-loops dropped, with their dyad codes. One walk per node fills
/// slots sized by out_degree + in_degree on the shared pool.
template <class View>
FlatRows union_rows(const View& view) {
  const std::size_t n = view.node_count();
  FlatRows rows;
  rows.lay_out(n, [&](graph::NodeId u) {
    return view.out_degree(u) + view.in_degree(u);
  });
  core::parallel_for(n, kRowGrain, [&](std::size_t begin, std::size_t end) {
    for (auto u = static_cast<graph::NodeId>(begin); u < end; ++u) {
      std::size_t at = rows.offset[u];
      for_each_union_neighbor(view, u, [&](graph::NodeId v, std::uint8_t c) {
        rows.nbr[at] = v;
        rows.code[at] = c;
        ++at;
      });
      rows.degree[u] = static_cast<std::uint32_t>(at - rows.offset[u]);
    }
  });
  return rows;
}

/// Forward rows over union rows: forward row u keeps the neighbors ranked
/// above u in the (union degree, id) order, ascending, with their codes.
/// Each triangle then appears once, at its lowest-ranked corner u, as
/// v ∈ forward[u] and w ∈ forward[u] ∩ forward[v].
FlatRows forward_rows(const FlatRows& nbr);

/// The triangle walk shared by both censuses: calls
/// visit(acc, cuv, cuw, cvw) once per triangle {u, v, w} of the forward
/// rows, at its lowest-ranked corner u with v ∈ forward[u] and
/// w ∈ forward[u] ∩ forward[v]; c_xy is the dyad code of (x, y). For each
/// u the walk marks u's forward row in a byte array (mark[w] = code(u, w))
/// and scans forward[v] against it, so it neither searches nor allocates
/// per row. Each lane (core::lane_index) owns one mark array of
/// node_count bytes, freed when the call returns. Chunk accumulators are
/// reduced over the static grid, so integer results are identical at any
/// lane count.
template <class Acc, class Visit, class Combine>
Acc reduce_triangles(const FlatRows& forward, Acc identity, Visit visit,
                     Combine combine) {
  const std::size_t n = forward.node_count();
  std::vector<std::vector<std::uint8_t>> marks(core::thread_count());
  // Triangle counts vary wildly per node (hubs dominate), so the grain
  // is finer than the row passes' to keep lanes balanced.
  return core::parallel_reduce(
      n, kRowGrain / 8, std::move(identity),
      [&](std::size_t begin, std::size_t end, Acc& acc) {
        const std::size_t lane = core::lane_index();
        GPLUS_EXPECT(lane < marks.size(), "lane count changed mid-walk");
        std::vector<std::uint8_t>& mark = marks[lane];
        if (mark.empty()) mark.assign(n, 0);
        for (auto u = static_cast<graph::NodeId>(begin); u < end; ++u) {
          const auto fu = forward.row(u);
          const auto cu = forward.codes(u);
          for (std::size_t i = 0; i < fu.size(); ++i) mark[fu[i]] = cu[i];
          for (std::size_t i = 0; i < fu.size(); ++i) {
            const auto fv = forward.row(fu[i]);
            const auto cv = forward.codes(fu[i]);
            for (std::size_t j = 0; j < fv.size(); ++j) {
              const std::uint8_t cuw = mark[fv[j]];
              if (cuw != 0) visit(acc, cu[i], cuw, cv[j]);
            }
          }
          for (const graph::NodeId w : fu) mark[w] = 0;
        }
      },
      combine);
}

/// Census over prebuilt union rows.
TriangleCensus census_from_rows(const FlatRows& nbr);

}  // namespace triangle_detail

/// Counts undirected triangles and connected triples of any view
/// (DiGraph, flat v2, compressed v3, mmap).
template <class View>
TriangleCensus count_triangles(const View& view) {
  return triangle_detail::census_from_rows(triangle_detail::union_rows(view));
}

}  // namespace gplus::algo
