#include "algo/betweenness.h"

#include <algorithm>

#include "core/parallel.h"
#include "stats/expect.h"
#include "stats/sampling.h"

namespace gplus::algo {

using graph::DiGraph;
using graph::NodeId;

namespace {

// One Brandes source accumulation: BFS orders nodes by distance, the
// reverse sweep pushes pair-dependencies down the shortest-path DAG.
void accumulate_from(const DiGraph& g, NodeId source,
                     std::vector<double>& score,
                     std::vector<std::uint32_t>& dist,
                     std::vector<double>& sigma, std::vector<double>& delta,
                     std::vector<NodeId>& order) {
  constexpr std::uint32_t kInf = 0xFFFFFFFF;
  const std::size_t n = g.node_count();
  std::fill(dist.begin(), dist.end(), kInf);
  std::fill(sigma.begin(), sigma.end(), 0.0);
  std::fill(delta.begin(), delta.end(), 0.0);
  order.clear();

  dist[source] = 0;
  sigma[source] = 1.0;
  order.push_back(source);
  std::size_t head = 0;
  while (head < order.size()) {
    const NodeId u = order[head++];
    for (NodeId v : g.out_neighbors(u)) {
      if (dist[v] == kInf) {
        dist[v] = dist[u] + 1;
        order.push_back(v);
      }
      if (dist[v] == dist[u] + 1) sigma[v] += sigma[u];
    }
  }
  // Reverse sweep.
  for (std::size_t i = order.size(); i-- > 1;) {
    const NodeId w = order[i];
    // Predecessors of w are the in-neighbors one level up.
    for (NodeId u : g.in_neighbors(w)) {
      if (dist[u] != kInf && dist[u] + 1 == dist[w] && sigma[w] > 0.0) {
        delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w]);
      }
    }
    if (w != source) score[w] += delta[w];
  }
  (void)n;
}

}  // namespace

std::vector<double> betweenness_centrality(const DiGraph& g) {
  const std::size_t n = g.node_count();
  std::vector<double> score(n, 0.0);
  std::vector<std::uint32_t> dist(n);
  std::vector<double> sigma(n), delta(n);
  std::vector<NodeId> order;
  order.reserve(n);
  for (NodeId s = 0; s < n; ++s) {
    accumulate_from(g, s, score, dist, sigma, delta, order);
  }
  return score;
}

std::vector<double> sampled_betweenness(const DiGraph& g, std::size_t sources,
                                        stats::Rng& rng) {
  GPLUS_EXPECT(sources >= 1, "need at least one source");
  const std::size_t n = g.node_count();
  std::vector<double> score(n, 0.0);
  if (n == 0) return score;
  const std::size_t k = std::min(sources, n);
  const auto picks = stats::sample_without_replacement(n, k, rng);

  // Brandes accumulations from different sources are independent but all
  // add into the score vector, so each *chunk* of sources gets a private
  // score vector and the chunks are summed per node in fixed chunk order.
  // The chunk grid depends only on k (at most 32 chunks, bounding the
  // partial-vector memory at 32 * n doubles), never on the thread count,
  // so the estimate is bit-identical for 1..N lanes.
  const std::size_t grain = std::max<std::size_t>(1, (k + 31) / 32);
  const std::size_t chunks = core::detail::chunk_count(k, grain);
  std::vector<std::vector<double>> partials(chunks);
  core::detail::run_chunks(
      k, grain, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        auto& local = partials[chunk];
        local.assign(n, 0.0);
        std::vector<std::uint32_t> dist(n);
        std::vector<double> sigma(n), delta(n);
        std::vector<NodeId> order;
        order.reserve(n);
        for (std::size_t i = begin; i < end; ++i) {
          accumulate_from(g, static_cast<NodeId>(picks[i]), local, dist, sigma,
                          delta, order);
        }
      });
  const double scale = static_cast<double>(n) / static_cast<double>(k);
  core::parallel_for(n, 8192, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      double total = 0.0;
      for (std::size_t c = 0; c < chunks; ++c) total += partials[c][u];
      score[u] = total * scale;
    }
  });
  return score;
}

}  // namespace gplus::algo
