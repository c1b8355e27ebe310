#include "algo/pagerank.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/parallel.h"
#include "stats/expect.h"

namespace gplus::algo {

using graph::DiGraph;
using graph::NodeId;

PageRankResult pagerank(const DiGraph& g, const PageRankOptions& options) {
  GPLUS_EXPECT(options.damping >= 0.0 && options.damping < 1.0,
               "damping must be in [0, 1)");
  GPLUS_EXPECT(options.max_iterations > 0, "need at least one iteration");

  const std::size_t n = g.node_count();
  PageRankResult result;
  if (n == 0) {
    result.converged = true;
    return result;
  }

  const double uniform = 1.0 / static_cast<double>(n);
  std::vector<double> rank(n, uniform);
  std::vector<double> next(n, 0.0);
  // Pull formulation: next[v] = base + Σ share[u] over in-neighbors u.
  // Each lane writes disjoint next[v] slots and every per-node sum runs
  // in ascending in-neighbor order, so the scores are bit-identical for
  // any thread count (the push/scatter form would race).
  std::vector<double> share(n, 0.0);
  constexpr std::size_t kGrain = 4096;
  const auto add = [](double& into, const double& from) { into += from; };

  for (std::size_t iter = 1; iter <= options.max_iterations; ++iter) {
    const double dangling = core::parallel_reduce(
        n, kGrain, 0.0,
        [&](std::size_t begin, std::size_t end, double& acc) {
          for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
            const std::size_t d = g.out_degree(u);
            if (d == 0) {
              share[u] = 0.0;
              acc += rank[u];
            } else {
              share[u] = options.damping * rank[u] / static_cast<double>(d);
            }
          }
        },
        add);
    const double base = (1.0 - options.damping) * uniform +
                        options.damping * dangling * uniform;
    core::parallel_for(n, kGrain / 4, [&](std::size_t begin, std::size_t end) {
      for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
        double total = base;
        for (NodeId u : g.in_neighbors(v)) total += share[u];
        next[v] = total;
      }
    });

    const double delta = core::parallel_reduce(
        n, kGrain, 0.0,
        [&](std::size_t begin, std::size_t end, double& acc) {
          for (std::size_t i = begin; i < end; ++i) {
            acc += std::abs(next[i] - rank[i]);
          }
        },
        add);
    rank.swap(next);
    result.iterations = iter;
    if (delta <= options.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.score = std::move(rank);
  return result;
}

std::vector<NodeId> top_by_pagerank(const PageRankResult& result,
                                    std::size_t k) {
  std::vector<NodeId> order(result.score.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  const std::size_t keep = std::min(k, order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&](NodeId a, NodeId b) {
                      if (result.score[a] != result.score[b]) {
                        return result.score[a] > result.score[b];
                      }
                      return a < b;
                    });
  order.resize(keep);
  return order;
}

}  // namespace gplus::algo
