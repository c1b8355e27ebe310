#include "algo/topk.h"

#include <algorithm>

namespace gplus::algo {

using graph::DiGraph;
using graph::NodeId;

namespace {

// Bounded selection via a min-heap ordered so the weakest candidate is
// evicted first.
std::vector<RankedNode> select_top(
    const DiGraph& g, std::size_t k,
    const std::function<std::uint64_t(NodeId)>& score,
    const std::function<bool(NodeId)>& keep) {
  auto weaker = [](const RankedNode& a, const RankedNode& b) {
    if (a.score != b.score) return a.score > b.score;  // min-heap on score
    return a.node < b.node;                            // evict larger id first
  };
  std::vector<RankedNode> heap;
  heap.reserve(k + 1);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (!keep(u)) continue;
    heap.push_back({u, score(u)});
    std::push_heap(heap.begin(), heap.end(), weaker);
    if (heap.size() > k) {
      std::pop_heap(heap.begin(), heap.end(), weaker);
      heap.pop_back();
    }
  }
  std::sort(heap.begin(), heap.end(),
            [](const RankedNode& a, const RankedNode& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.node < b.node;
            });
  return heap;
}

}  // namespace

std::vector<RankedNode> top_by_in_degree(const DiGraph& g, std::size_t k) {
  return select_top(
      g, k,
      [&](NodeId u) { return static_cast<std::uint64_t>(g.in_degree(u)); },
      [](NodeId) { return true; });
}

std::vector<RankedNode> top_by_out_degree(const DiGraph& g, std::size_t k) {
  return select_top(
      g, k,
      [&](NodeId u) { return static_cast<std::uint64_t>(g.out_degree(u)); },
      [](NodeId) { return true; });
}

std::vector<RankedNode> top_by_in_degree_filtered(
    const DiGraph& g, std::size_t k, const std::function<bool(NodeId)>& keep) {
  return select_top(
      g, k,
      [&](NodeId u) { return static_cast<std::uint64_t>(g.in_degree(u)); },
      keep);
}

}  // namespace gplus::algo
