// Top-k ranking by degree (Table 1, Table 5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/digraph.h"

namespace gplus::algo {

/// One ranked node.
struct RankedNode {
  graph::NodeId node = 0;
  std::uint64_t score = 0;
};

/// The `k` nodes with largest in-degree, descending (ties by ascending id).
std::vector<RankedNode> top_by_in_degree(const graph::DiGraph& g,
                                         std::size_t k);

/// The `k` nodes with largest out-degree, descending.
std::vector<RankedNode> top_by_out_degree(const graph::DiGraph& g,
                                          std::size_t k);

/// The `k` nodes with largest in-degree among those satisfying `keep`
/// (Table 5 ranks within each country).
std::vector<RankedNode> top_by_in_degree_filtered(
    const graph::DiGraph& g, std::size_t k,
    const std::function<bool(graph::NodeId)>& keep);

}  // namespace gplus::algo
