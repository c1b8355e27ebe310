#include "graph/digraph.h"

#include <algorithm>

#include "stats/expect.h"

namespace gplus::graph {

namespace {

// Builds one CSR direction (offsets + sorted, deduplicated targets) from an
// edge list, reading endpoints through `src` / `dst` accessors.
template <typename SrcFn, typename DstFn>
void build_csr(NodeId node_count, std::span<const Edge> edges,
               bool keep_self_loops, SrcFn src, DstFn dst,
               std::vector<std::uint64_t>& offsets,
               std::vector<NodeId>& targets) {
  offsets.assign(static_cast<std::size_t>(node_count) + 1, 0);
  for (const Edge& e : edges) {
    if (!keep_self_loops && e.from == e.to) continue;
    ++offsets[static_cast<std::size_t>(src(e)) + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  targets.resize(offsets.back());
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    if (!keep_self_loops && e.from == e.to) continue;
    targets[cursor[src(e)]++] = dst(e);
  }

  // Sort each adjacency list, then deduplicate in place (compacting both the
  // targets array and the offsets).
  std::uint64_t write = 0;
  std::uint64_t read_begin = 0;
  for (NodeId u = 0; u < node_count; ++u) {
    const std::uint64_t read_end = offsets[static_cast<std::size_t>(u) + 1];
    std::sort(targets.begin() + static_cast<std::ptrdiff_t>(read_begin),
              targets.begin() + static_cast<std::ptrdiff_t>(read_end));
    const std::uint64_t new_begin = write;
    for (std::uint64_t i = read_begin; i < read_end; ++i) {
      if (i > read_begin && targets[i] == targets[i - 1]) continue;
      targets[write++] = targets[i];
    }
    offsets[u] = new_begin;
    read_begin = read_end;
  }
  offsets[node_count] = write;
  targets.resize(write);

  // offsets currently holds begin positions shifted down; rebuild the
  // canonical prefix form offsets[u] = begin(u), offsets[n] = edge count.
  // (Already canonical: offsets[u] was rewritten to the compacted begin and
  // offsets[node_count] to the total.)
}

}  // namespace

DiGraph DiGraph::from_edges(NodeId node_count, std::span<const Edge> edges,
                            bool keep_self_loops) {
  for (const Edge& e : edges) {
    GPLUS_EXPECT(e.from < node_count && e.to < node_count,
                 "edge endpoint out of range");
  }
  DiGraph g;
  build_csr(
      node_count, edges, keep_self_loops, [](const Edge& e) { return e.from; },
      [](const Edge& e) { return e.to; }, g.out_offsets_, g.out_targets_);
  build_csr(
      node_count, edges, keep_self_loops, [](const Edge& e) { return e.to; },
      [](const Edge& e) { return e.from; }, g.in_offsets_, g.in_targets_);
  return g;
}

void DiGraph::check_node(NodeId u) const {
  GPLUS_EXPECT(static_cast<std::size_t>(u) < node_count(),
               "node id out of range");
}

std::span<const NodeId> DiGraph::out_neighbors(NodeId u) const {
  check_node(u);
  const auto begin = out_offsets_[u];
  const auto end = out_offsets_[static_cast<std::size_t>(u) + 1];
  return {out_targets_.data() + begin, out_targets_.data() + end};
}

std::span<const NodeId> DiGraph::in_neighbors(NodeId u) const {
  check_node(u);
  const auto begin = in_offsets_[u];
  const auto end = in_offsets_[static_cast<std::size_t>(u) + 1];
  return {in_targets_.data() + begin, in_targets_.data() + end};
}

std::size_t DiGraph::out_degree(NodeId u) const {
  check_node(u);
  return out_offsets_[static_cast<std::size_t>(u) + 1] - out_offsets_[u];
}

std::size_t DiGraph::in_degree(NodeId u) const {
  check_node(u);
  return in_offsets_[static_cast<std::size_t>(u) + 1] - in_offsets_[u];
}

bool DiGraph::has_edge(NodeId u, NodeId v) const {
  check_node(v);
  const auto nbrs = out_neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

bool DiGraph::is_reciprocal(NodeId u, NodeId v) const {
  return has_edge(u, v) && has_edge(v, u);
}

std::vector<Edge> DiGraph::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    for (NodeId v : out_neighbors(u)) out.push_back({u, v});
  }
  return out;
}

DiGraph DiGraph::reversed() const {
  DiGraph g;
  g.out_offsets_ = in_offsets_;
  g.out_targets_ = in_targets_;
  g.in_offsets_ = out_offsets_;
  g.in_targets_ = out_targets_;
  return g;
}

double DiGraph::mean_degree() const noexcept {
  if (node_count() == 0) return 0.0;
  return static_cast<double>(edge_count()) / static_cast<double>(node_count());
}

}  // namespace gplus::graph
