#include "algo/scc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/builder.h"
#include "stats/rng.h"

namespace gplus::algo {
namespace {

using graph::DiGraph;
using graph::GraphBuilder;
using graph::NodeId;

TEST(Scc, SingleCycleIsOneComponent) {
  GraphBuilder b;
  for (NodeId u = 0; u < 5; ++u) b.add_edge(u, (u + 1) % 5);
  const auto sccs = strongly_connected_components(b.build());
  EXPECT_EQ(sccs.component_count(), 1u);
  EXPECT_EQ(sccs.giant_size(), 5u);
  EXPECT_DOUBLE_EQ(sccs.giant_fraction(), 1.0);
}

TEST(Scc, DagIsAllSingletons) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  const auto sccs = strongly_connected_components(b.build());
  EXPECT_EQ(sccs.component_count(), 3u);
  EXPECT_EQ(sccs.giant_size(), 1u);
}

TEST(Scc, TwoCyclesJoinedByOneWayBridge) {
  GraphBuilder b;
  b.add_reciprocal_edge(0, 1);
  b.add_reciprocal_edge(2, 3);
  b.add_edge(1, 2);  // one-way: components stay separate
  const auto sccs = strongly_connected_components(b.build());
  EXPECT_EQ(sccs.component_count(), 2u);
  EXPECT_EQ(sccs.component[0], sccs.component[1]);
  EXPECT_EQ(sccs.component[2], sccs.component[3]);
  EXPECT_NE(sccs.component[0], sccs.component[2]);
}

TEST(Scc, SizesSumToNodeCount) {
  GraphBuilder b;
  stats::Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    b.add_edge(static_cast<NodeId>(rng.next_below(400)),
               static_cast<NodeId>(rng.next_below(400)));
  }
  const auto g = b.build();
  const auto sccs = strongly_connected_components(g);
  std::uint64_t total = 0;
  for (auto s : sccs.sizes) total += s;
  EXPECT_EQ(total, g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_LT(sccs.component[u], sccs.component_count());
  }
}

TEST(Scc, DeepChainDoesNotOverflowStack) {
  // 200k-node path: a recursive Tarjan would blow the call stack.
  GraphBuilder b;
  constexpr NodeId kN = 200'000;
  for (NodeId u = 0; u + 1 < kN; ++u) b.add_edge(u, u + 1);
  const auto sccs = strongly_connected_components(b.build());
  EXPECT_EQ(sccs.component_count(), kN);
}

TEST(Scc, EmptyGraph) {
  const auto sccs = strongly_connected_components(DiGraph{});
  EXPECT_EQ(sccs.component_count(), 0u);
  EXPECT_EQ(sccs.giant_size(), 0u);
  EXPECT_DOUBLE_EQ(sccs.giant_fraction(), 0.0);
}

TEST(SccSizeCcdf, MatchesComponentSizes) {
  GraphBuilder b;
  b.add_reciprocal_edge(0, 1);  // component of 2
  b.add_edge(2, 0);             // singleton
  b.add_edge(3, 0);             // singleton
  const auto sccs = strongly_connected_components(b.build());
  const auto ccdf = scc_size_ccdf(sccs);
  ASSERT_EQ(ccdf.size(), 2u);
  EXPECT_DOUBLE_EQ(ccdf[0].x, 1.0);
  EXPECT_DOUBLE_EQ(ccdf[0].y, 1.0);
  EXPECT_DOUBLE_EQ(ccdf[1].x, 2.0);
  EXPECT_DOUBLE_EQ(ccdf[1].y, 1.0 / 3.0);
}

TEST(Wcc, IgnoresDirection) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(2, 1);
  b.add_edge(3, 4);
  const auto wccs = weakly_connected_components(b.build());
  EXPECT_EQ(wccs.component_count(), 2u);
  EXPECT_EQ(wccs.giant_size(), 3u);
  EXPECT_EQ(wccs.component[0], wccs.component[2]);
  EXPECT_NE(wccs.component[0], wccs.component[3]);
}

TEST(Wcc, IsolatedNodesAreSingletons) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  const auto wccs = weakly_connected_components(b.build());
  EXPECT_EQ(wccs.component_count(), 4u);
}

class SccRefinesWcc : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SccRefinesWcc, EverySccInsideOneWcc) {
  GraphBuilder b;
  stats::Rng rng(GetParam());
  for (int i = 0; i < 1500; ++i) {
    b.add_edge(static_cast<NodeId>(rng.next_below(300)),
               static_cast<NodeId>(rng.next_below(300)));
  }
  const auto g = b.build();
  const auto sccs = strongly_connected_components(g);
  const auto wccs = weakly_connected_components(g);
  EXPECT_GE(sccs.component_count(), wccs.component_count());
  // All members of one SCC share a WCC.
  std::vector<std::int64_t> scc_to_wcc(sccs.component_count(), -1);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    auto& slot = scc_to_wcc[sccs.component[u]];
    if (slot == -1) {
      slot = wccs.component[u];
    } else {
      EXPECT_EQ(slot, wccs.component[u]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SccRefinesWcc,
                         ::testing::Values(1u, 2u, 3u, 7u));

}  // namespace
}  // namespace gplus::algo
