// Immutable compressed-sparse-row directed graph.
//
// The social graph G(V, E) of §3: a node per user, a directed edge (u, v)
// when u has v in one of u's circles. Both out- and in-adjacency are stored
// in CSR form with sorted neighbor lists, giving O(1) degree queries,
// cache-friendly traversal, and O(log deg) membership tests — the same
// layout SNAP and other large-graph toolkits use.
//
// A DiGraph is a graph view natively (algo/graph_view.h): `out_scan` /
// `in_scan` hand out span cursors with the same contract as the snapshot
// layer's `serve::NeighborScan`, so every view-templated algorithm runs on
// it as it is.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"

namespace gplus::graph {

/// Immutable directed graph in CSR form. Construct via `GraphBuilder` (which
/// deduplicates and sorts) or directly from pre-validated CSR arrays.
class DiGraph {
 public:
  /// Forward cursor over one sorted neighbor span: the graph-view cursor
  /// contract (`next`, `skip_to`) that `serve::NeighborScan` also meets.
  class Cursor {
   public:
    explicit Cursor(std::span<const NodeId> list) noexcept : list_(list) {}
    /// Yields the next entry; false at end of list.
    bool next(NodeId& v) noexcept {
      if (at_ >= list_.size()) return false;
      v = list_[at_++];
      return true;
    }
    /// Positions so the next `next()` yields entry `entry`; false when
    /// `entry` is past the end.
    bool skip_to(std::uint64_t entry) noexcept {
      if (entry > list_.size()) return false;
      at_ = entry;
      return true;
    }

   private:
    std::span<const NodeId> list_;
    std::size_t at_ = 0;
  };

  /// Empty graph with zero nodes.
  DiGraph() = default;

  /// Builds from an edge list; `node_count` must exceed every endpoint.
  /// Duplicate edges are collapsed; self-loops are kept only if
  /// `keep_self_loops` (the G+ social graph has none, but generic tooling
  /// may want them).
  static DiGraph from_edges(NodeId node_count, std::span<const Edge> edges,
                            bool keep_self_loops = false);

  std::size_t node_count() const noexcept {
    return out_offsets_.empty() ? 0 : out_offsets_.size() - 1;
  }
  std::size_t edge_count() const noexcept { return out_targets_.size(); }

  /// Out-neighbors of `u` ("In user's circles" list), sorted ascending.
  std::span<const NodeId> out_neighbors(NodeId u) const;
  /// In-neighbors of `u` ("Have user in circles" list), sorted ascending.
  std::span<const NodeId> in_neighbors(NodeId u) const;

  /// View cursors over the same lists.
  Cursor out_scan(NodeId u) const { return Cursor(out_neighbors(u)); }
  Cursor in_scan(NodeId u) const { return Cursor(in_neighbors(u)); }

  std::size_t out_degree(NodeId u) const;
  std::size_t in_degree(NodeId u) const;

  /// True when the directed edge u -> v exists. O(log out_degree(u)).
  bool has_edge(NodeId u, NodeId v) const;

  /// True when both u -> v and v -> u exist.
  bool is_reciprocal(NodeId u, NodeId v) const;

  /// Materializes the (sorted) edge list.
  std::vector<Edge> edges() const;

  /// Graph with every edge direction flipped.
  DiGraph reversed() const;

  /// Sum of degrees / node count; for a digraph mean in-degree == mean
  /// out-degree == edge_count / node_count.
  double mean_degree() const noexcept;

  /// Validates that a node id is in range; throws std::invalid_argument.
  void check_node(NodeId u) const;

 private:
  friend class GraphBuilder;

  // CSR arrays: neighbors of u live in targets[offsets[u] .. offsets[u+1]).
  std::vector<std::uint64_t> out_offsets_{0};
  std::vector<NodeId> out_targets_;
  std::vector<std::uint64_t> in_offsets_{0};
  std::vector<NodeId> in_targets_;
};

}  // namespace gplus::graph
