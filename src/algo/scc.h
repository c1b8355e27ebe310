// Strongly connected components (§3.3.4, Figure 4c).
//
// Iterative Tarjan: a single DFS pass, explicit stack (the crawled graph's
// BFS-tree depth would overflow the call stack on recursive variants).
// The paper finds 9.77M SCCs with one giant component of 25.24M nodes.
// Tarjan is a template over a graph view (algo/graph_view.h), so the same
// code runs on a DiGraph and on a flat, compressed or mmap'd snapshot.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algo/graph_view.h"
#include "graph/digraph.h"
#include "stats/distribution.h"

namespace gplus::algo {

/// SCC decomposition result.
struct SccResult {
  /// component[u] = dense component index in [0, component_count).
  std::vector<std::uint32_t> component;
  /// size of each component, indexed by component id.
  std::vector<std::uint64_t> sizes;

  std::size_t component_count() const noexcept { return sizes.size(); }
  /// Node count of the largest component (0 for the empty graph).
  std::uint64_t giant_size() const noexcept;
  /// Giant component size / node count.
  double giant_fraction() const noexcept;
};

/// Tarjan's algorithm, iterative, over any view's out-adjacency. A
/// suspended DFS level holds its node and how far into the out-list the
/// scan got; resuming re-opens the row and skips back (a block skip on a
/// compressed row), so frame memory is constant per level regardless of
/// list length.
template <class View>
SccResult strongly_connected_components(const View& view) {
  const std::size_t n = view.node_count();
  SccResult result;
  result.component.assign(n, 0);
  if (n == 0) return result;

  constexpr std::uint32_t kUnvisited = 0;
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<graph::NodeId> tarjan_stack;

  struct Frame {
    graph::NodeId node;
    std::uint64_t pos;
  };
  std::vector<Frame> frames;
  std::uint32_t counter = 0;

  for (graph::NodeId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.push_back({root, 0});
    index[root] = lowlink[root] = ++counter;
    tarjan_stack.push_back(root);
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const graph::NodeId u = frame.node;
      auto scan = view.out_scan(u);
      scan.skip_to(frame.pos);
      bool descended = false;
      graph::NodeId v = 0;
      while (scan.next(v)) {
        ++frame.pos;
        if (index[v] == kUnvisited) {
          index[v] = lowlink[v] = ++counter;
          tarjan_stack.push_back(v);
          on_stack[v] = 1;
          frames.push_back({v, 0});
          descended = true;
          break;
        }
        if (on_stack[v]) lowlink[u] = std::min(lowlink[u], index[v]);
      }
      if (descended) continue;
      // u's subtree is done: close its component if it is a root.
      if (lowlink[u] == index[u]) {
        const auto comp = static_cast<std::uint32_t>(result.sizes.size());
        std::uint64_t size = 0;
        graph::NodeId w = 0;
        do {
          w = tarjan_stack.back();
          tarjan_stack.pop_back();
          on_stack[w] = 0;
          result.component[w] = comp;
          ++size;
        } while (w != u);
        result.sizes.push_back(size);
      }
      frames.pop_back();
      if (!frames.empty()) {
        const graph::NodeId parent = frames.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
      }
    }
  }
  return result;
}

/// Figure 4(c): CCDF of SCC sizes (one sample per component).
std::vector<stats::CurvePoint> scc_size_ccdf(const SccResult& sccs);

/// Weakly connected components via union-find.
struct WccResult {
  std::vector<std::uint32_t> component;
  std::vector<std::uint64_t> sizes;

  std::size_t component_count() const noexcept { return sizes.size(); }
  std::uint64_t giant_size() const noexcept;
  double giant_fraction() const noexcept;
};

WccResult weakly_connected_components(const graph::DiGraph& g);

}  // namespace gplus::algo
