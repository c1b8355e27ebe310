// PageRank over the social graph.
//
// Table 1 ranks "top users" by raw in-degree; PageRank is the natural
// robustness check (does weighting followers by *their* audience change
// who the celebrities are?) and a standard component of any graph-analysis
// toolkit operating at this scale.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/digraph.h"

namespace gplus::algo {

/// PageRank options.
struct PageRankOptions {
  double damping = 0.85;      // teleport with probability 1 - damping
  double tolerance = 1e-9;    // L1 convergence threshold
  std::size_t max_iterations = 100;
};

/// PageRank result.
struct PageRankResult {
  std::vector<double> score;  // sums to 1 over all nodes
  std::size_t iterations = 0;
  bool converged = false;
};

/// Power iteration with uniform teleportation; dangling (out-degree 0)
/// mass is redistributed uniformly, so scores always sum to 1.
PageRankResult pagerank(const graph::DiGraph& g,
                        const PageRankOptions& options = {});

/// Nodes ranked by PageRank, descending (ties by ascending id), top `k`.
std::vector<graph::NodeId> top_by_pagerank(const PageRankResult& result,
                                           std::size_t k);

}  // namespace gplus::algo
