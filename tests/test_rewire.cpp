#include "algo/rewire.h"

#include <gtest/gtest.h>

#include "algo/clustering.h"
#include "algo/degrees.h"
#include "algo/reciprocity.h"
#include "core/parallel.h"
#include "graph/builder.h"

namespace gplus::algo {
namespace {

using graph::DiGraph;
using graph::GraphBuilder;
using graph::NodeId;

DiGraph clustered_graph() {
  // Many directed triangles: high clustering for a random baseline to lose.
  GraphBuilder b;
  stats::Rng rng(11);
  for (NodeId base = 0; base < 600; base += 3) {
    for (NodeId i = 0; i < 3; ++i) {
      for (NodeId j = 0; j < 3; ++j) {
        if (i != j) b.add_edge(base + i, base + j);
      }
    }
    // Sprinkle cross links to connect the triangles.
    b.add_edge(base, static_cast<NodeId>(rng.next_below(600)));
  }
  return b.build();
}

TEST(RandomSameDensity, MatchesCounts) {
  const auto g = clustered_graph();
  stats::Rng rng(6);
  const auto random = random_same_density(g, rng);
  EXPECT_EQ(random.node_count(), g.node_count());
  EXPECT_EQ(random.edge_count(), g.edge_count());
  for (NodeId u = 0; u < random.node_count(); ++u) {
    EXPECT_FALSE(random.has_edge(u, u));
  }
}

TEST(RandomSameDensity, HasNearZeroClustering) {
  const auto g = clustered_graph();
  stats::Rng rng(7);
  const auto random = random_same_density(g, rng);
  EXPECT_LT(average_clustering_coefficient(random), 0.05);
}

// Graph with self-loops and zero-degree (isolated) nodes: the degenerate
// shapes a generic rewiring tool must survive with degrees intact.
DiGraph degenerate_graph() {
  std::vector<graph::Edge> edges;
  stats::Rng rng(23);
  for (NodeId u = 0; u < 120; ++u) {
    edges.push_back({u, static_cast<NodeId>((u + 1) % 120)});
    if (u % 10 == 0) edges.push_back({u, u});  // self-loop
    if (rng.next_bool(0.3)) {
      edges.push_back({u, static_cast<NodeId>(rng.next_below(120))});
    }
  }
  // Nodes 120..139 are isolated.
  return DiGraph::from_edges(140, edges, /*keep_self_loops=*/true);
}

TEST(Calibrate, ImprovesTowardHigherClustering) {
  // Low-clustering random-ish graph steered toward a clustered profile.
  const auto g = [] {
    stats::Rng rng(40);
    return random_same_density(clustered_graph(), rng);
  }();
  RewireObjective objective;
  objective.target_clustering = 0.3;
  objective.target_reciprocity = global_reciprocity(g);  // hold fixed
  CalibrateConfig config;
  config.seed = 2;
  config.max_rounds = 8;
  config.clustering_sample = 0;
  config.swaps_per_round_per_edge = 0.2;
  const CalibrationResult result = calibrate_to_profile(g, objective, config);
  EXPECT_LE(result.final_error, result.initial_error);
  EXPECT_GT(result.calibrated.clustering, result.initial.clustering);
  // Degree-preserving by construction.
  EXPECT_EQ(in_degrees(result.graph), in_degrees(g));
  EXPECT_EQ(out_degrees(result.graph), out_degrees(g));
}

TEST(Calibrate, DegenerateInputsPreserveDegrees) {
  const auto g = degenerate_graph();
  RewireObjective objective;
  objective.target_clustering = 0.2;
  objective.target_reciprocity = 0.5;
  CalibrateConfig config;
  config.seed = 3;
  config.max_rounds = 3;
  config.clustering_sample = 0;
  config.swaps_per_round_per_edge = 0.3;
  const CalibrationResult result = calibrate_to_profile(g, objective, config);
  EXPECT_EQ(result.graph.node_count(), g.node_count());
  EXPECT_EQ(result.graph.edge_count(), g.edge_count());
  EXPECT_EQ(in_degrees(result.graph), in_degrees(g));
  EXPECT_EQ(out_degrees(result.graph), out_degrees(g));
  EXPECT_LE(result.final_error, result.initial_error);
}

TEST(Calibrate, DeterministicAcrossThreadCounts) {
  const auto g = degenerate_graph();
  RewireObjective objective;
  objective.target_clustering = 0.25;
  objective.target_reciprocity = 0.4;
  CalibrateConfig config;
  config.seed = 6;
  config.max_rounds = 3;
  config.clustering_sample = 0;
  config.swaps_per_round_per_edge = 0.3;
  core::set_thread_count(1);
  const CalibrationResult lane1 = calibrate_to_profile(g, objective, config);
  core::set_thread_count(4);
  const CalibrationResult lane4 = calibrate_to_profile(g, objective, config);
  core::set_thread_count(0);
  EXPECT_EQ(lane1.graph.edges(), lane4.graph.edges());
  EXPECT_EQ(lane1.final_error, lane4.final_error);
  EXPECT_EQ(lane1.round_errors, lane4.round_errors);
}

TEST(Calibrate, TrivialInputsPassThrough) {
  GraphBuilder b;
  b.add_edge(0, 1);
  const auto g = b.build();
  const CalibrationResult result = calibrate_to_profile(g, {});
  EXPECT_EQ(result.graph.edges(), g.edges());
  EXPECT_EQ(result.rounds_accepted, 0u);
  CalibrateConfig bad;
  bad.swaps_per_round_per_edge = -1.0;
  EXPECT_THROW(calibrate_to_profile(g, {}, bad), std::invalid_argument);
}

}  // namespace
}  // namespace gplus::algo
