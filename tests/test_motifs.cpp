// Directed triad census: oracle fuzz, golden fixtures, sampling bounds,
// determinism.
//
// The oracle classifies each 3-node subgraph by explicit isomorphism
// against hand-written representative edge lists — an independent path
// from the engine's canonical mask table, so a table bug cannot cancel
// itself out.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "algo/motifs.h"
#include "algo/rewire.h"
#include "core/dataset.h"
#include "core/parallel.h"
#include "graph/digraph.h"
#include "stats/rng.h"

namespace gplus {
namespace {

using algo::SampledTriadCensus;
using algo::TriadCensus;
using algo::TriadClass;
using algo::kTriadClassCount;
using graph::DiGraph;
using graph::Edge;
using graph::NodeId;

struct Arc {
  int from;
  int to;
};

// Hand-written representative of every class (statnet/Pajek pictures,
// nodes A=0, B=1, C=2), in M-A-N order. Written from the definitions,
// independent of src/algo/motifs.cpp's bit masks.
const std::array<std::vector<Arc>, kTriadClassCount> kClassArcs = {{
    {},                                                    // 003
    {{0, 1}},                                              // 012
    {{0, 1}, {1, 0}},                                      // 102
    {{1, 0}, {1, 2}},                                      // 021D  A←B→C
    {{0, 1}, {2, 1}},                                      // 021U  A→B←C
    {{0, 1}, {1, 2}},                                      // 021C  A→B→C
    {{0, 1}, {1, 0}, {2, 1}},                              // 111D  A↔B←C
    {{0, 1}, {1, 0}, {1, 2}},                              // 111U  A↔B→C
    {{0, 1}, {2, 1}, {0, 2}},                              // 030T
    {{1, 0}, {2, 1}, {0, 2}},                              // 030C
    {{0, 1}, {1, 0}, {1, 2}, {2, 1}},                      // 201
    {{1, 0}, {1, 2}, {0, 2}, {2, 0}},                      // 120D
    {{0, 1}, {2, 1}, {0, 2}, {2, 0}},                      // 120U
    {{0, 1}, {1, 2}, {0, 2}, {2, 0}},                      // 120C
    {{0, 1}, {1, 2}, {2, 1}, {0, 2}, {2, 0}},              // 210
    {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}},      // 300
}};

constexpr int kPerms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                              {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};

// 3x3 adjacency matrix of one representative.
std::array<std::array<bool, 3>, 3> arcs_matrix(const std::vector<Arc>& arcs) {
  std::array<std::array<bool, 3>, 3> m{};
  for (const Arc& a : arcs) m[a.from][a.to] = true;
  return m;
}

// Classifies the subgraph on (u, v, w) by brute-force isomorphism.
std::size_t oracle_class(const DiGraph& g, NodeId u, NodeId v, NodeId w) {
  const NodeId nodes[3] = {u, v, w};
  std::array<std::array<bool, 3>, 3> sub{};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) sub[i][j] = g.has_edge(nodes[i], nodes[j]);
    }
  }
  for (std::size_t k = 0; k < kTriadClassCount; ++k) {
    const auto rep = arcs_matrix(kClassArcs[k]);
    for (const auto& p : kPerms) {
      bool match = true;
      for (int i = 0; i < 3 && match; ++i) {
        for (int j = 0; j < 3 && match; ++j) {
          if (i != j && sub[i][j] != rep[p[i]][p[j]]) match = false;
        }
      }
      if (match) return k;
    }
  }
  ADD_FAILURE() << "subgraph matched no class";
  return 0;
}

// O(n^3) reference census.
TriadCensus oracle_census(const DiGraph& g) {
  TriadCensus census;
  const auto n = static_cast<NodeId>(g.node_count());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      for (NodeId w = v + 1; w < n; ++w) {
        ++census.counts[oracle_class(g, u, v, w)];
      }
    }
  }
  return census;
}

// Random digraph with tunable density and reciprocity bias.
DiGraph random_digraph(NodeId n, double density, double reciprocity,
                       std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const bool forward = rng.next_bool(density);
      if (forward) edges.push_back({u, v});
      const double back_p = forward ? reciprocity : density;
      if (rng.next_bool(back_p)) edges.push_back({v, u});
    }
  }
  return DiGraph::from_edges(n, edges);
}

DiGraph single_triad_graph(std::size_t cls) {
  std::vector<Edge> edges;
  for (const Arc& a : kClassArcs[cls]) {
    edges.push_back({static_cast<NodeId>(a.from), static_cast<NodeId>(a.to)});
  }
  return DiGraph::from_edges(3, edges);
}

TEST(TriadClassTable, NamesAndClosedSplit) {
  EXPECT_EQ(algo::triad_class_name(TriadClass::k003), "003");
  EXPECT_EQ(algo::triad_class_name(TriadClass::k021D), "021D");
  EXPECT_EQ(algo::triad_class_name(TriadClass::k300), "300");
  std::size_t closed = 0;
  for (std::size_t k = 0; k < kTriadClassCount; ++k) {
    if (algo::triad_class_closed(static_cast<TriadClass>(k))) ++closed;
  }
  EXPECT_EQ(closed, 7u);  // 030T 030C 120D 120U 120C 210 300
}

TEST(TriadClassTable, MaskOfEveryRepresentativeMatches) {
  // Build the arc mask of each hand-written representative and check the
  // engine's table maps it to the right class; bit layout per motifs.h.
  constexpr int kPairBit[3][3] = {{-1, 0, 2}, {1, -1, 4}, {3, 5, -1}};
  for (std::size_t k = 0; k < kTriadClassCount; ++k) {
    unsigned mask = 0;
    for (const Arc& a : kClassArcs[k]) mask |= 1U << kPairBit[a.from][a.to];
    EXPECT_EQ(algo::triad_class_of_mask(mask), static_cast<TriadClass>(k))
        << "class " << algo::triad_class_name(static_cast<TriadClass>(k));
  }
}

TEST(TriadCensusGolden, EmptyGraph) {
  const auto g = DiGraph::from_edges(5, {});
  const TriadCensus census = algo::triad_census(g);
  EXPECT_EQ(census[TriadClass::k003], 10u);  // C(5,3)
  EXPECT_EQ(census.total(), 10u);
  EXPECT_EQ(census.closed(), 0u);
  EXPECT_EQ(census.wedge_closure(), 0.0);
}

TEST(TriadCensusGolden, TinyAndDegenerateGraphs) {
  EXPECT_EQ(algo::triad_census(DiGraph()).total(), 0u);
  EXPECT_EQ(algo::triad_census(DiGraph::from_edges(2, {{Edge{0, 1}}})).total(),
            0u);
  // Self-loops are ignored by the census (no triad contains one).
  const std::vector<Edge> loops = {{0, 0}, {0, 1}, {1, 1}};
  const auto g = DiGraph::from_edges(3, loops, /*keep_self_loops=*/true);
  const TriadCensus census = algo::triad_census(g);
  EXPECT_EQ(census[TriadClass::k012], 1u);
  EXPECT_EQ(census.total(), 1u);
}

TEST(TriadCensusGolden, AllSixteenSingleTriadGraphs) {
  for (std::size_t k = 0; k < kTriadClassCount; ++k) {
    const TriadCensus census = algo::triad_census(single_triad_graph(k));
    for (std::size_t j = 0; j < kTriadClassCount; ++j) {
      EXPECT_EQ(census.counts[j], j == k ? 1u : 0u)
          << "graph " << algo::triad_class_name(static_cast<TriadClass>(k))
          << " slot " << algo::triad_class_name(static_cast<TriadClass>(j));
    }
  }
}

TEST(TriadCensusGolden, OutStarInStarCycleClique) {
  // Out-star: center 0 → 1..5. All wedges at the center are 021D.
  std::vector<Edge> star;
  for (NodeId v = 1; v <= 5; ++v) star.push_back({0, v});
  TriadCensus census = algo::triad_census(DiGraph::from_edges(6, star));
  EXPECT_EQ(census[TriadClass::k021D], 10u);  // C(5,2)
  EXPECT_EQ(census[TriadClass::k012], 0u);    // every third touches center
  EXPECT_EQ(census[TriadClass::k003], 10u);   // C(6,3) - 10

  // In-star flips every wedge to 021U.
  std::vector<Edge> in_star;
  for (NodeId v = 1; v <= 5; ++v) in_star.push_back({v, 0});
  census = algo::triad_census(DiGraph::from_edges(6, in_star));
  EXPECT_EQ(census[TriadClass::k021U], 10u);

  // Directed 3-cycle.
  census = algo::triad_census(
      DiGraph::from_edges(3, {{Edge{0, 1}, Edge{1, 2}, Edge{2, 0}}}));
  EXPECT_EQ(census[TriadClass::k030C], 1u);
  EXPECT_EQ(census.closed(), 1u);

  // Complete mutual K4: every triple is 300.
  std::vector<Edge> clique;
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      if (u != v) clique.push_back({u, v});
    }
  }
  census = algo::triad_census(DiGraph::from_edges(4, clique));
  EXPECT_EQ(census[TriadClass::k300], 4u);  // C(4,3)
  EXPECT_DOUBLE_EQ(census.wedge_closure(), 1.0);
}

TEST(TriadCensusOracle, FuzzAcrossDensityAndReciprocity) {
  const NodeId sizes[] = {8, 16, 33, 64};
  const double densities[] = {0.05, 0.2, 0.5};
  const double reciprocities[] = {0.0, 0.5, 0.9};
  std::uint64_t seed = 1;
  for (const NodeId n : sizes) {
    for (const double d : densities) {
      for (const double r : reciprocities) {
        const DiGraph g = random_digraph(n, d, r, seed);
        const TriadCensus expected = oracle_census(g);
        const TriadCensus actual = algo::triad_census(g);
        EXPECT_EQ(actual, expected)
            << "n=" << n << " density=" << d << " reciprocity=" << r
            << " seed=" << seed;
        ++seed;
      }
    }
  }
}

TEST(TriadCensusDeterminism, ThreadCountInvariant) {
  const auto ds = core::make_standard_dataset(2000, 11);
  core::set_thread_count(1);
  const TriadCensus lane1 = algo::triad_census(ds.graph());
  core::set_thread_count(5);
  const TriadCensus lane5 = algo::triad_census(ds.graph());
  core::set_thread_count(0);
  EXPECT_EQ(lane1, lane5);
}

class TriadSamplerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new core::Dataset(core::make_standard_dataset(3000, 9));
    exact_ = new TriadCensus(algo::triad_census(dataset_->graph()));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete exact_;
    dataset_ = nullptr;
    exact_ = nullptr;
  }
  static const core::Dataset& dataset() { return *dataset_; }
  static const TriadCensus& exact() { return *exact_; }

 private:
  static core::Dataset* dataset_;
  static TriadCensus* exact_;
};

core::Dataset* TriadSamplerTest::dataset_ = nullptr;
TriadCensus* TriadSamplerTest::exact_ = nullptr;

TEST_F(TriadSamplerTest, PinnedErrorBoundsPerSeed) {
  const double exact_closure = exact().wedge_closure();
  ASSERT_GT(exact_closure, 0.0);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    algo::TriadSampleConfig config;
    config.samples = 60'000;
    config.seed = seed;
    const SampledTriadCensus est =
        algo::sample_triad_census(dataset().graph(), config);
    ASSERT_EQ(est.sampled, config.samples);
    // Closure estimate: within one point of the exact value, every seed.
    EXPECT_NEAR(est.closed_fraction, exact_closure, 0.01) << "seed " << seed;
    // Per-class estimates: within 10% relative on every class holding at
    // least 2% of the wedge mass (rarer classes get noisier).
    const double wedges = static_cast<double>(est.total_wedges);
    for (std::size_t k = 0; k < kTriadClassCount; ++k) {
      const auto cls = static_cast<TriadClass>(k);
      const double exact_count = static_cast<double>(exact().counts[k]);
      const double mass =
          exact_count * (algo::triad_class_closed(cls) ? 3.0 : 1.0) / wedges;
      if (cls == TriadClass::k003 || cls == TriadClass::k012 ||
          cls == TriadClass::k102 || mass < 0.02) {
        continue;
      }
      EXPECT_NEAR(est.estimated_counts[k], exact_count, exact_count * 0.10)
          << "seed " << seed << " class "
          << algo::triad_class_name(cls);
    }
  }
}

TEST_F(TriadSamplerTest, WedgePopulationMatchesCensus) {
  algo::TriadSampleConfig config;
  config.samples = 1'000;
  const SampledTriadCensus est =
      algo::sample_triad_census(dataset().graph(), config);
  // Σ C(d,2) must equal the census's wedge population: 3·closed + open.
  EXPECT_EQ(est.total_wedges, 3 * exact().closed() + exact().open_wedges());
}

TEST_F(TriadSamplerTest, BitIdenticalAcrossThreadCounts) {
  algo::TriadSampleConfig config;
  config.samples = 20'000;
  config.seed = 4;
  core::set_thread_count(1);
  const SampledTriadCensus lane1 =
      algo::sample_triad_census(dataset().graph(), config);
  core::set_thread_count(6);
  const SampledTriadCensus lane6 =
      algo::sample_triad_census(dataset().graph(), config);
  core::set_thread_count(0);
  EXPECT_EQ(lane1.closed_fraction, lane6.closed_fraction);
  for (std::size_t k = 0; k < kTriadClassCount; ++k) {
    EXPECT_EQ(lane1.estimated_counts[k], lane6.estimated_counts[k]);
    EXPECT_EQ(lane1.wedge_share[k], lane6.wedge_share[k]);
  }
}

TEST(TriadSamplerEdgeCases, EmptyAndWedgelessGraphs) {
  algo::TriadSampleConfig config;
  config.samples = 100;
  const SampledTriadCensus empty =
      algo::sample_triad_census(DiGraph::from_edges(4, {}), config);
  EXPECT_EQ(empty.total_wedges, 0u);
  EXPECT_EQ(empty.sampled, 0u);
  // A single mutual pair has degree-1 endpoints only: no wedges.
  const SampledTriadCensus pair = algo::sample_triad_census(
      DiGraph::from_edges(4, {{Edge{0, 1}, Edge{1, 0}}}), config);
  EXPECT_EQ(pair.total_wedges, 0u);
}

TEST(MotifCalibration, BitIdenticalAcrossThreadCounts) {
  const DiGraph g = random_digraph(300, 0.03, 0.2, 31);
  algo::RewireObjective objective;
  objective.target_clustering = 0.15;
  objective.target_reciprocity = 0.5;
  algo::CalibrateConfig config;
  config.seed = 5;
  config.max_rounds = 4;
  config.clustering_sample = 0;  // exact measurement
  config.swaps_per_round_per_edge = 0.1;

  core::set_thread_count(1);
  const algo::CalibrationResult lane1 =
      algo::calibrate_to_profile(g, objective, config);
  core::set_thread_count(4);
  const algo::CalibrationResult lane4 =
      algo::calibrate_to_profile(g, objective, config);
  core::set_thread_count(0);

  EXPECT_EQ(lane1.graph.edges(), lane4.graph.edges());
  EXPECT_EQ(lane1.final_error, lane4.final_error);
  EXPECT_EQ(lane1.round_errors, lane4.round_errors);
  EXPECT_EQ(lane1.swaps_applied, lane4.swaps_applied);
}

}  // namespace
}  // namespace gplus
