// The graph view concept shared by every view-templated algorithm.
//
// Algorithms that must run both on an in-RAM `graph::DiGraph` and on a
// serving snapshot (flat v2, compressed v3, mmap — `serve::SnapshotView`)
// are templates over a *view*. A view provides:
//
//   - `node_count()`: nodes are the dense ids [0, node_count()).
//   - `out_scan(u)` / `in_scan(u)`: forward cursors over u's out- and
//     in-neighbors in ascending id order, with `bool next(NodeId& v)`
//     (false at end of list) and `bool skip_to(entry)` (positions the
//     cursor so the next `next()` yields list entry `entry`; false when
//     `entry` is past the end). `serve::NeighborScan` is the snapshot
//     cursor; a suspended scan is resumed by re-opening the row and
//     skipping, so callers keep a (node, position) pair, not a cursor.
//   - `out_degree(u)` and `has_out_edge(u, v)`: used by the motif census;
//     `in_degree(u)`: used to size union rows.
//
// Users: strongly_connected_components (algo/scc.h),
// approximate_neighborhood_function (algo/anf.h), the triad census
// (algo/motifs.h) and the triangle census (algo/triangles.h). DiGraphView
// gives a DiGraph this interface.
//
// for_each_union_neighbor below is the one out∪in merge in src/algo:
// the triad census and wedge sampler, the triangle census, k-core
// peeling, label propagation and modularity all walk undirected rows
// through it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/digraph.h"

namespace gplus::algo {

/// Adapter giving a DiGraph the view interface (snapshot formats come
/// with it natively via serve::SnapshotView).
class DiGraphView {
 public:
  /// Span-backed forward cursor matching the NeighborScan contract.
  class Cursor {
   public:
    explicit Cursor(std::span<const graph::NodeId> list) noexcept
        : list_(list) {}
    bool next(graph::NodeId& v) noexcept {
      if (at_ >= list_.size()) return false;
      v = list_[at_++];
      return true;
    }
    bool skip_to(std::uint64_t entry) noexcept {
      if (entry > list_.size()) return false;
      at_ = entry;
      return true;
    }

   private:
    std::span<const graph::NodeId> list_;
    std::size_t at_ = 0;
  };

  explicit DiGraphView(const graph::DiGraph& g) noexcept : g_(&g) {}
  std::size_t node_count() const noexcept { return g_->node_count(); }
  Cursor out_scan(graph::NodeId u) const {
    return Cursor(g_->out_neighbors(u));
  }
  Cursor in_scan(graph::NodeId u) const {
    return Cursor(g_->in_neighbors(u));
  }
  std::uint64_t out_degree(graph::NodeId u) const { return g_->out_degree(u); }
  std::uint64_t in_degree(graph::NodeId u) const { return g_->in_degree(u); }
  bool has_out_edge(graph::NodeId u, graph::NodeId v) const {
    return g_->has_edge(u, v);
  }

 private:
  const graph::DiGraph* g_;
};

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
