// The graph view concept shared by every view-templated algorithm.
//
// Each algorithm in src/algo that reads adjacency is one template over a
// *view*, so the same body runs on an in-RAM `graph::DiGraph` and on a
// serving snapshot (flat v2, compressed v3, mmap — `serve::SnapshotView`).
// Both types are views natively; there is no adapter. A view provides:
//
//   - `node_count()`: nodes are the dense ids [0, node_count()).
//   - `out_scan(u)` / `in_scan(u)`: forward cursors over u's out- and
//     in-neighbors in ascending id order, with `bool next(NodeId& v)`
//     (false at end of list) and `bool skip_to(entry)` (positions the
//     cursor so the next `next()` yields list entry `entry`; false when
//     `entry` is past the end). `graph::DiGraph::Cursor` walks a CSR span;
//     `serve::NeighborScan` walks a flat or varint-coded snapshot row. A
//     suspended scan is resumed by re-opening the row and skipping, so
//     callers keep a (node, position) pair, not a cursor.
//   - `out_degree(u)` / `in_degree(u)`, and `edge_count()`.
//   - `has_edge(u, v)`: true when the arc u → v exists.
//
// Per-node entry points check `u < node_count()` once and throw
// std::invalid_argument otherwise: a DiGraph checks every accessor, but
// snapshot accessors are unchecked loads.
//
// Users: bfs, estimate_path_lengths and double_sweep_diameter
// (algo/bfs.h), clustering (algo/clustering.h), reciprocity
// (algo/reciprocity.h), the degree distributions (algo/degrees.h), k-core
// (algo/kcore.h), label propagation and modularity (algo/communities.h),
// strongly_connected_components (algo/scc.h),
// approximate_neighborhood_function (algo/anf.h), the triad census and
// wedge sampler (algo/motifs.h) and the triangle census
// (algo/triangles.h).
//
// for_each_union_neighbor below is the one out∪in merge in src/algo;
// out_row / in_row the one way a row reaches the intersect kernel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/digraph.h"
#include "stats/expect.h"

namespace gplus::algo {

/// Throws std::invalid_argument unless u < view.node_count(), with the
/// message DiGraph::check_node gives.
template <class View>
void check_node(const View& view, graph::NodeId u) {
  GPLUS_EXPECT(static_cast<std::size_t>(u) < view.node_count(),
               "node id out of range");
}

namespace view_detail {

template <class Scan>
std::span<const graph::NodeId> decode_row(Scan scan,
                                          std::vector<graph::NodeId>& scratch) {
  scratch.clear();
  graph::NodeId v = 0;
  while (scan.next(v)) scratch.push_back(v);
  return scratch;
}

}  // namespace view_detail

/// u's ascending out-list (in_row: in-list) as a span for the intersect
/// kernel. The view type picks the source: a DiGraph hands out its own CSR
/// span, any other view decodes the row into `scratch` (valid until the
/// next call with the same scratch).
template <class View>
std::span<const graph::NodeId> out_row(const View& view, graph::NodeId u,
                                       std::vector<graph::NodeId>& scratch) {
  if constexpr (std::is_same_v<View, graph::DiGraph>) {
    return view.out_neighbors(u);
  } else {
    return view_detail::decode_row(view.out_scan(u), scratch);
  }
}

template <class View>
std::span<const graph::NodeId> in_row(const View& view, graph::NodeId u,
                                      std::vector<graph::NodeId>& scratch) {
  if constexpr (std::is_same_v<View, graph::DiGraph>) {
    return view.in_neighbors(u);
  } else {
    return view_detail::decode_row(view.in_scan(u), scratch);
  }
}

/// Visits u's distinct out∪in neighbors in ascending id order, self-loops
/// dropped, as fn(v, code): code is the 2-bit dyad code of (u, v) —
/// 1 = u→v only, 2 = v→u only, 3 = both.
template <class View, class Fn>
void for_each_union_neighbor(const View& view, graph::NodeId u, Fn&& fn) {
  auto out = view.out_scan(u);
  auto in = view.in_scan(u);
  graph::NodeId a = 0;
  graph::NodeId b = 0;
  bool has_a = out.next(a);
  bool has_b = in.next(b);
  while (has_a || has_b) {
    graph::NodeId v;
    std::uint8_t code;
    if (has_a && (!has_b || a < b)) {
      v = a;
      code = 1;
      has_a = out.next(a);
    } else if (has_b && (!has_a || b < a)) {
      v = b;
      code = 2;
      has_b = in.next(b);
    } else {
      v = a;
      code = 3;
      has_a = out.next(a);
      has_b = in.next(b);
    }
    if (v != u) fn(v, code);
  }
}

}  // namespace gplus::algo
