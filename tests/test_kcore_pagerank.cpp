#include <gtest/gtest.h>

#include "algo/kcore.h"
#include "algo/pagerank.h"
#include "graph/builder.h"
#include "stats/rng.h"

namespace gplus::algo {
namespace {

using graph::DiGraph;
using graph::GraphBuilder;
using graph::NodeId;

TEST(KCore, EmptyGraph) {
  const auto cores = k_core_decomposition(DiGraph{});
  EXPECT_TRUE(cores.coreness.empty());
  EXPECT_EQ(cores.degeneracy, 0u);
}

TEST(KCore, PathHasCorenessOne) {
  GraphBuilder b;
  for (NodeId u = 0; u + 1 < 10; ++u) b.add_edge(u, u + 1);
  const auto cores = k_core_decomposition(b.build());
  for (auto c : cores.coreness) EXPECT_EQ(c, 1u);
  EXPECT_EQ(cores.degeneracy, 1u);
}

TEST(KCore, CliqueWithTail) {
  // Directed 5-clique (coreness 4 undirected) plus a pendant chain.
  GraphBuilder b;
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = 0; v < 5; ++v) {
      if (u != v) b.add_edge(u, v);
    }
  }
  b.add_edge(5, 0);
  b.add_edge(6, 5);
  const auto cores = k_core_decomposition(b.build());
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(cores.coreness[u], 4u) << u;
  EXPECT_EQ(cores.coreness[5], 1u);
  EXPECT_EQ(cores.coreness[6], 1u);
  EXPECT_EQ(cores.degeneracy, 4u);
  EXPECT_EQ(cores.core_size(4), 5u);
  EXPECT_EQ(cores.core_size(1), 7u);
  EXPECT_EQ(cores.core_size(5), 0u);
}

TEST(KCore, ReciprocalEdgesCountOnce) {
  // Mutual pair: undirected degree 1 each, not 2.
  GraphBuilder b;
  b.add_reciprocal_edge(0, 1);
  const auto cores = k_core_decomposition(b.build());
  EXPECT_EQ(cores.coreness[0], 1u);
  EXPECT_EQ(cores.coreness[1], 1u);
}

TEST(KCore, CorenessAtMostDegree) {
  GraphBuilder b;
  stats::Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    b.add_edge(static_cast<NodeId>(rng.next_below(600)),
               static_cast<NodeId>(rng.next_below(600)));
  }
  const auto g = b.build();
  const auto cores = k_core_decomposition(g);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_LE(cores.coreness[u], g.in_degree(u) + g.out_degree(u));
  }
  // core_size is monotone decreasing in k.
  for (std::uint32_t k = 1; k <= cores.degeneracy; ++k) {
    EXPECT_GE(cores.core_size(k - 1), cores.core_size(k));
  }
}

TEST(KCore, KCoreSubgraphHasMinDegreeK) {
  // Property: inside the k-core (k = degeneracy), every node has at least
  // k undirected neighbors that are also in the core.
  GraphBuilder b;
  stats::Rng rng(6);
  for (int i = 0; i < 3000; ++i) {
    b.add_edge(static_cast<NodeId>(rng.next_below(300)),
               static_cast<NodeId>(rng.next_below(300)));
  }
  const auto g = b.build();
  const auto cores = k_core_decomposition(g);
  const std::uint32_t k = cores.degeneracy;
  ASSERT_GT(k, 0u);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (cores.coreness[u] < k) continue;
    std::uint32_t inside = 0;
    for (NodeId v : g.out_neighbors(u))
      inside += v != u && cores.coreness[v] >= k;
    for (NodeId v : g.in_neighbors(u)) {
      inside += v != u && cores.coreness[v] >= k && !g.has_edge(u, v);
    }
    EXPECT_GE(inside, k) << "node " << u;
  }
}

TEST(PageRank, UniformOnSymmetricRing) {
  GraphBuilder b;
  constexpr NodeId kN = 12;
  for (NodeId u = 0; u < kN; ++u) b.add_edge(u, (u + 1) % kN);
  const auto pr = pagerank(b.build());
  EXPECT_TRUE(pr.converged);
  for (double s : pr.score) EXPECT_NEAR(s, 1.0 / kN, 1e-9);
}

TEST(PageRank, ScoresSumToOne) {
  GraphBuilder b;
  stats::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    b.add_edge(static_cast<NodeId>(rng.next_below(400)),
               static_cast<NodeId>(rng.next_below(400)));
  }
  b.ensure_node(450);  // dangling + isolated nodes included
  const auto pr = pagerank(b.build());
  double total = 0.0;
  for (double s : pr.score) {
    EXPECT_GE(s, 0.0);
    total += s;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(PageRank, HubOutranksLeaves) {
  GraphBuilder b;
  for (NodeId v = 1; v <= 50; ++v) b.add_edge(v, 0);
  b.add_edge(0, 1);
  const auto pr = pagerank(b.build());
  for (NodeId v = 2; v <= 50; ++v) EXPECT_GT(pr.score[0], pr.score[v]);
  const auto top = top_by_pagerank(pr, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);  // receives the hub's whole endorsement
}

TEST(PageRank, DanglingMassRedistributed) {
  // 0 -> 1, 1 dangles: without dangling handling, mass would leak.
  GraphBuilder b;
  b.add_edge(0, 1);
  const auto pr = pagerank(b.build());
  EXPECT_TRUE(pr.converged);
  EXPECT_NEAR(pr.score[0] + pr.score[1], 1.0, 1e-9);
  EXPECT_GT(pr.score[1], pr.score[0]);
}

TEST(PageRank, RejectsBadOptions) {
  GraphBuilder b;
  b.add_edge(0, 1);
  const auto g = b.build();
  PageRankOptions bad;
  bad.damping = 1.0;
  EXPECT_THROW(pagerank(g, bad), std::invalid_argument);
  PageRankOptions zero_iter;
  zero_iter.max_iterations = 0;
  EXPECT_THROW(pagerank(g, zero_iter), std::invalid_argument);
}

TEST(PageRank, TopByPagerankHandlesShortLists) {
  PageRankResult pr;
  pr.score = {0.2, 0.5, 0.3};
  const auto top = top_by_pagerank(pr, 10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 0u);
  EXPECT_TRUE(top_by_pagerank(PageRankResult{}, 5).empty());
}

}  // namespace
}  // namespace gplus::algo
