#include "algo/bfs.h"

#include <gtest/gtest.h>

#include "graph/builder.h"

namespace gplus::algo {
namespace {

using graph::DiGraph;
using graph::GraphBuilder;
using graph::NodeId;

DiGraph path_graph(NodeId n) {
  GraphBuilder b;
  for (NodeId u = 0; u + 1 < n; ++u) b.add_edge(u, u + 1);
  return b.build();
}

TEST(BfsDistances, DirectedPath) {
  const auto g = path_graph(5);
  const auto dist = bfs_distances(g, 0);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(dist[u], u);
  // From the end, nothing is reachable forward.
  const auto back = bfs_distances(g, 4);
  EXPECT_EQ(back[4], 0u);
  for (NodeId u = 0; u < 4; ++u) EXPECT_EQ(back[u], kUnreachable);
}

TEST(BfsDistances, UndirectedViewReachesBackwards) {
  const auto g = path_graph(5);
  const auto dist = bfs_distances_undirected(g, 4);
  for (NodeId u = 0; u < 5; ++u) EXPECT_EQ(dist[u], 4u - u);
}

TEST(BfsDistances, DisconnectedComponentsUnreachable) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const auto g = b.build();
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(BfsDistances, ValidatesSource) {
  const auto g = path_graph(3);
  EXPECT_THROW(bfs_distances(g, 3), std::invalid_argument);
}

TEST(BfsDistances, ShortestOfMultiplePaths) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(0, 3);  // shortcut
  const auto dist = bfs_distances(b.build(), 0);
  EXPECT_EQ(dist[3], 1u);
}

TEST(EstimatePathLengths, ExactOnCompleteGraph) {
  GraphBuilder b;
  constexpr NodeId kN = 20;
  for (NodeId u = 0; u < kN; ++u) {
    for (NodeId v = 0; v < kN; ++v) {
      if (u != v) b.add_edge(u, v);
    }
  }
  stats::Rng rng(1);
  PathLengthOptions opt;
  opt.initial_sources = kN;  // use all nodes
  opt.max_sources = kN;
  const auto est = estimate_path_lengths(b.build(), opt, rng);
  EXPECT_DOUBLE_EQ(est.mean, 1.0);
  EXPECT_EQ(est.mode, 1u);
  EXPECT_EQ(est.diameter_lower_bound, 1u);
  EXPECT_DOUBLE_EQ(est.reachable_fraction, 1.0);
  EXPECT_EQ(est.sources_used, kN);
}

TEST(EstimatePathLengths, RingHasKnownDistribution) {
  GraphBuilder b;
  constexpr NodeId kN = 11;
  for (NodeId u = 0; u < kN; ++u) b.add_edge(u, (u + 1) % kN);
  stats::Rng rng(2);
  PathLengthOptions opt;
  opt.initial_sources = kN;
  opt.max_sources = kN;
  const auto est = estimate_path_lengths(b.build(), opt, rng);
  // Directed ring of 11: distances 1..10 uniformly.
  EXPECT_NEAR(est.mean, 5.5, 1e-9);
  EXPECT_EQ(est.diameter_lower_bound, 10u);
}

TEST(EstimatePathLengths, UndirectedOptionShortensRing) {
  GraphBuilder b;
  constexpr NodeId kN = 11;
  for (NodeId u = 0; u < kN; ++u) b.add_edge(u, (u + 1) % kN);
  stats::Rng rng(3);
  PathLengthOptions opt;
  opt.initial_sources = kN;
  opt.max_sources = kN;
  opt.undirected = true;
  const auto est = estimate_path_lengths(b.build(), opt, rng);
  // Undirected ring of 11: max distance 5.
  EXPECT_EQ(est.diameter_lower_bound, 5u);
  EXPECT_NEAR(est.mean, 3.0, 1e-9);
}

TEST(EstimatePathLengths, PmfSumsToOne) {
  const auto g = path_graph(50);
  stats::Rng rng(4);
  PathLengthOptions opt;
  opt.initial_sources = 10;
  opt.max_sources = 50;
  const auto est = estimate_path_lengths(g, opt, rng);
  double total = 0.0;
  for (double p : est.pmf) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_LT(est.reachable_fraction, 1.0);  // path graph: most pairs one-way
}

TEST(EstimatePathLengths, RejectsBadOptions) {
  const auto g = path_graph(3);
  stats::Rng rng(5);
  PathLengthOptions opt;
  opt.initial_sources = 0;
  EXPECT_THROW(estimate_path_lengths(g, opt, rng), std::invalid_argument);
  opt.initial_sources = 1;
  opt.growth = 1.0;
  EXPECT_THROW(estimate_path_lengths(g, opt, rng), std::invalid_argument);
  EXPECT_THROW(estimate_path_lengths(DiGraph{}, PathLengthOptions{}, rng),
               std::invalid_argument);
}

TEST(DoubleSweepDiameter, PathGraphExact) {
  const auto g = path_graph(10);
  EXPECT_EQ(double_sweep_diameter(g, 5, /*undirected=*/true), 9u);
  // Directed double sweep from node 0 reaches the full chain.
  EXPECT_EQ(double_sweep_diameter(g, 0, /*undirected=*/false), 9u);
}

TEST(DoubleSweepDiameter, AtLeastSingleSweep) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  const auto g = b.build();
  EXPECT_GE(double_sweep_diameter(g, 0, false), 2u);
}

}  // namespace
}  // namespace gplus::algo
