#include "graph/digraph.h"

#include <gtest/gtest.h>

#include <vector>

#include "algo/graph_view.h"

namespace gplus::graph {
namespace {

std::vector<Edge> kite_edges() {
  // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0, 3 isolated (via node_count).
  return {{0, 1}, {0, 2}, {1, 2}, {2, 0}};
}

TEST(DiGraph, EmptyGraph) {
  const DiGraph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.mean_degree(), 0.0);
}

TEST(DiGraph, BasicCountsAndNeighbors) {
  const auto edges = kite_edges();
  const auto g = DiGraph::from_edges(4, edges);
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(2), 2u);
  EXPECT_EQ(g.out_degree(3), 0u);
  EXPECT_EQ(g.in_degree(3), 0u);

  const auto n0 = g.out_neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);

  const auto in2 = g.in_neighbors(2);
  ASSERT_EQ(in2.size(), 2u);
  EXPECT_EQ(in2[0], 0u);
  EXPECT_EQ(in2[1], 1u);
}

TEST(DiGraph, DuplicateEdgesCollapse) {
  const std::vector<Edge> edges = {{0, 1}, {0, 1}, {0, 1}, {1, 0}};
  const auto g = DiGraph::from_edges(2, edges);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.in_degree(1), 1u);
}

TEST(DiGraph, SelfLoopPolicy) {
  const std::vector<Edge> edges = {{0, 0}, {0, 1}};
  const auto dropped = DiGraph::from_edges(2, edges, /*keep_self_loops=*/false);
  EXPECT_EQ(dropped.edge_count(), 1u);
  EXPECT_FALSE(dropped.has_edge(0, 0));
  const auto kept = DiGraph::from_edges(2, edges, /*keep_self_loops=*/true);
  EXPECT_EQ(kept.edge_count(), 2u);
  EXPECT_TRUE(kept.has_edge(0, 0));
}

TEST(DiGraph, HasEdgeAndReciprocal) {
  const auto g = DiGraph::from_edges(4, kite_edges());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.is_reciprocal(0, 2));
  EXPECT_FALSE(g.is_reciprocal(0, 1));
}

TEST(DiGraph, EdgesRoundTripSorted) {
  const auto g = DiGraph::from_edges(4, kite_edges());
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 4u);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    EXPECT_LE(edges[i - 1], edges[i]);
  }
  for (const Edge& e : edges) EXPECT_TRUE(g.has_edge(e.from, e.to));
}

TEST(DiGraph, ReversedSwapsDirections) {
  const auto g = DiGraph::from_edges(4, kite_edges());
  const auto r = g.reversed();
  EXPECT_EQ(r.node_count(), g.node_count());
  EXPECT_EQ(r.edge_count(), g.edge_count());
  for (const Edge& e : g.edges()) {
    EXPECT_TRUE(r.has_edge(e.to, e.from));
  }
  EXPECT_EQ(r.out_degree(2), g.in_degree(2));
  EXPECT_EQ(r.in_degree(2), g.out_degree(2));
}

TEST(DiGraph, OutOfRangeEndpointsRejected) {
  const std::vector<Edge> edges = {{0, 5}};
  EXPECT_THROW(DiGraph::from_edges(3, edges), std::invalid_argument);
}

TEST(DiGraph, NodeAccessorsValidateIds) {
  const auto g = DiGraph::from_edges(2, std::vector<Edge>{{0, 1}});
  EXPECT_THROW(g.out_neighbors(2), std::invalid_argument);
  EXPECT_THROW(g.in_neighbors(2), std::invalid_argument);
  EXPECT_THROW(g.out_degree(2), std::invalid_argument);
  EXPECT_THROW((void)g.has_edge(0, 2), std::invalid_argument);
}

TEST(DiGraph, ViewCursorsAndRowsUseTheCsrSpans) {
  const auto edges = kite_edges();
  const auto g = DiGraph::from_edges(4, edges);
  auto scan = g.out_scan(0);
  NodeId v = 0;
  ASSERT_TRUE(scan.next(v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(scan.skip_to(0));  // resume from the start of the row
  ASSERT_TRUE(scan.next(v));
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(scan.next(v));
  EXPECT_EQ(v, 2u);
  EXPECT_FALSE(scan.next(v));
  EXPECT_TRUE(scan.skip_to(2));   // one past the last entry: at end
  EXPECT_FALSE(scan.skip_to(3));  // past the end
  EXPECT_THROW(g.in_scan(4), std::invalid_argument);

  // The intersect kernel gets the graph's own span, never a copy.
  std::vector<NodeId> scratch;
  EXPECT_EQ(algo::out_row(g, 0, scratch).data(), g.out_neighbors(0).data());
  EXPECT_EQ(algo::in_row(g, 2, scratch).data(), g.in_neighbors(2).data());
  EXPECT_TRUE(scratch.empty());
}

TEST(DiGraph, MeanDegree) {
  const auto g = DiGraph::from_edges(4, kite_edges());
  EXPECT_DOUBLE_EQ(g.mean_degree(), 1.0);
}

TEST(DiGraph, LargeAdjacencyStaysSorted) {
  std::vector<Edge> edges;
  // Star with shuffled insert order.
  for (NodeId v = 100; v > 0; --v) edges.push_back({0, v});
  const auto g = DiGraph::from_edges(101, edges);
  const auto nbrs = g.out_neighbors(0);
  ASSERT_EQ(nbrs.size(), 100u);
  for (std::size_t i = 1; i < nbrs.size(); ++i) EXPECT_LT(nbrs[i - 1], nbrs[i]);
  EXPECT_TRUE(g.has_edge(0, 57));
  EXPECT_FALSE(g.has_edge(57, 0));
}

class DiGraphSize : public ::testing::TestWithParam<NodeId> {};

TEST_P(DiGraphSize, RingGraphInvariants) {
  const NodeId n = GetParam();
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u)
    edges.push_back({u, static_cast<NodeId>((u + 1) % n)});
  const auto g = DiGraph::from_edges(n, edges);
  EXPECT_EQ(g.edge_count(), n);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(g.out_degree(u), 1u);
    EXPECT_EQ(g.in_degree(u), 1u);
    EXPECT_TRUE(g.has_edge(u, (u + 1) % n));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DiGraphSize,
                         ::testing::Values(2u, 3u, 10u, 257u, 1024u));

}  // namespace
}  // namespace gplus::graph
