#include "synth/graph_gen.h"

#include <gtest/gtest.h>

#include "algo/reciprocity.h"
#include "algo/scc.h"
#include "geo/world.h"
#include "stats/rng.h"

namespace gplus::synth {
namespace {

// Shared medium network for the statistical assertions (generation costs a
// couple of seconds; do it once per process).
class GraphGenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    population_ = new PopulationModel();
    world_ = new geo::World();
    net_ = new GeneratedNetwork(generate_network(
        google_plus_preset(40'000, 42), *population_, *world_));
  }
  static void TearDownTestSuite() {
    delete net_;
    delete world_;
    delete population_;
    net_ = nullptr;
    world_ = nullptr;
    population_ = nullptr;
  }

  static PopulationModel* population_;
  static geo::World* world_;
  static GeneratedNetwork* net_;
};

PopulationModel* GraphGenTest::population_ = nullptr;
geo::World* GraphGenTest::world_ = nullptr;
GeneratedNetwork* GraphGenTest::net_ = nullptr;

TEST(SampleTruncatedPareto, BoundsAndTail) {
  stats::Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = sample_truncated_pareto(2.0, 1.5, 100, rng);
    EXPECT_GE(v, 2u);
    EXPECT_LE(v, 100u);
  }
  // Uncapped draws exceed any fixed cap eventually.
  bool saw_large = false;
  for (int i = 0; i < 200'000 && !saw_large; ++i) {
    saw_large = sample_truncated_pareto(1.0, 1.0, 0, rng) > 10'000;
  }
  EXPECT_TRUE(saw_large);
}

TEST(SampleTruncatedPareto, RejectsBadArguments) {
  stats::Rng rng(1);
  EXPECT_THROW(sample_truncated_pareto(0.0, 1.0, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(sample_truncated_pareto(1.0, 0.0, 0, rng),
               std::invalid_argument);
}

TEST_F(GraphGenTest, ShapesAreConsistent) {
  const std::size_t n = net_->node_count();
  EXPECT_EQ(n, 40'000u);
  EXPECT_EQ(net_->graph.node_count(), n);
  EXPECT_EQ(net_->country.size(), n);
  EXPECT_EQ(net_->city.size(), n);
  EXPECT_EQ(net_->location.size(), n);
  EXPECT_EQ(net_->celebrity.size(), n);
  EXPECT_EQ(net_->fitness.size(), n);
}

TEST_F(GraphGenTest, NoSelfLoops) {
  for (graph::NodeId u = 0; u < net_->graph.node_count(); ++u) {
    EXPECT_FALSE(net_->graph.has_edge(u, u));
  }
}

TEST_F(GraphGenTest, MeanDegreeNearTable4) {
  // Paper Table 4: 16.4; the band allows for scale and dedup effects.
  EXPECT_GT(net_->graph.mean_degree(), 12.0);
  EXPECT_LT(net_->graph.mean_degree(), 21.0);
}

TEST_F(GraphGenTest, GlobalReciprocityNearPaper) {
  const double r = algo::global_reciprocity(net_->graph);
  // Paper: 32%.
  EXPECT_GT(r, 0.25);
  EXPECT_LT(r, 0.45);
}

TEST_F(GraphGenTest, MostUsersHighRelationReciprocity) {
  const auto rr = algo::relation_reciprocities(net_->graph);
  std::size_t high = 0;
  for (double r : rr) high += r > 0.6;
  // Paper Fig 4a: more than 60% of users above 0.6. Allow slack at 40k scale.
  EXPECT_GT(static_cast<double>(high) / rr.size(), 0.5);
}

TEST_F(GraphGenTest, GiantSccAroundSeventyPercent) {
  const auto sccs = algo::strongly_connected_components(net_->graph);
  EXPECT_GT(sccs.giant_fraction(), 0.6);
  EXPECT_LT(sccs.giant_fraction(), 0.9);
}

TEST_F(GraphGenTest, CelebritiesExistAndDominateInDegree) {
  std::size_t celeb_count = 0;
  std::uint64_t best_ordinary = 0, best_celebrity = 0;
  for (graph::NodeId u = 0; u < net_->graph.node_count(); ++u) {
    const auto in = net_->graph.in_degree(u);
    if (net_->celebrity[u]) {
      ++celeb_count;
      best_celebrity = std::max<std::uint64_t>(best_celebrity, in);
    } else {
      best_ordinary = std::max<std::uint64_t>(best_ordinary, in);
    }
  }
  EXPECT_NEAR(static_cast<double>(celeb_count),
              40'000 * GraphGenConfig{}.celebrity_fraction, 3.0);
  EXPECT_GT(best_celebrity, best_ordinary);
}

TEST_F(GraphGenTest, CountriesFollowPopulationShares) {
  std::vector<std::size_t> counts(geo::country_count(), 0);
  for (auto c : net_->country) ++counts[c];
  const auto us = *geo::find_country("US");
  EXPECT_NEAR(static_cast<double>(counts[us]) / net_->node_count(), 0.3138,
              0.02);
}

TEST_F(GraphGenTest, DormantUsersHaveNoOutEdges) {
  // ~25% of accounts never add anyone.
  std::size_t sinks = 0;
  for (graph::NodeId u = 0; u < net_->graph.node_count(); ++u) {
    sinks += net_->graph.out_degree(u) == 0;
  }
  const double frac = static_cast<double>(sinks) / net_->node_count();
  EXPECT_GT(frac, 0.15);
  EXPECT_LT(frac, 0.35);
}

TEST_F(GraphGenTest, EdgesPreferSameCountry) {
  std::uint64_t same = 0, total = 0;
  for (graph::NodeId u = 0; u < net_->graph.node_count(); ++u) {
    for (graph::NodeId v : net_->graph.out_neighbors(u)) {
      ++total;
      same += net_->country[u] == net_->country[v];
    }
  }
  const double frac = static_cast<double>(same) / static_cast<double>(total);
  // Fig 10: most countries are inward-looking; global self-link mass ~0.7.
  EXPECT_GT(frac, 0.55);
  EXPECT_LT(frac, 0.9);
}

TEST(GraphGen, DeterministicForSameSeed) {
  const PopulationModel population;
  const geo::World world;
  const auto a =
      generate_network(google_plus_preset(3000, 9), population, world);
  const auto b =
      generate_network(google_plus_preset(3000, 9), population, world);
  EXPECT_EQ(a.graph.edge_count(), b.graph.edge_count());
  EXPECT_EQ(a.country, b.country);
  EXPECT_EQ(a.celebrity, b.celebrity);
  for (graph::NodeId u = 0; u < 3000; ++u) {
    ASSERT_EQ(a.graph.out_degree(u), b.graph.out_degree(u)) << u;
  }
}

TEST(GraphGen, SeedsChangeTheGraph) {
  const PopulationModel population;
  const geo::World world;
  const auto a =
      generate_network(google_plus_preset(3000, 1), population, world);
  const auto b =
      generate_network(google_plus_preset(3000, 2), population, world);
  // Different seeds should differ in edge structure almost surely.
  bool differs = a.graph.edge_count() != b.graph.edge_count();
  for (graph::NodeId u = 0; !differs && u < 3000; ++u) {
    differs = a.graph.out_degree(u) != b.graph.out_degree(u);
  }
  EXPECT_TRUE(differs);
}

TEST(GraphGen, OutDegreeCapEnforced) {
  GraphGenConfig config = google_plus_preset(8000, 3);
  config.out_degree_cap = 50;
  config.celebrity_fraction = 0.0;  // nobody is exempt
  const PopulationModel population;
  const geo::World world;
  const auto net = generate_network(config, population, world);
  for (graph::NodeId u = 0; u < net.graph.node_count(); ++u) {
    EXPECT_LE(net.graph.out_degree(u), 50u);
  }
}

TEST(GraphGen, CelebritiesExemptFromCap) {
  GraphGenConfig config = google_plus_preset(8000, 4);
  config.out_degree_cap = 30;
  config.celebrity_fraction = 0.01;
  const PopulationModel population;
  const geo::World world;
  const auto net = generate_network(config, population, world);
  bool celebrity_over_cap = false;
  for (graph::NodeId u = 0; u < net.graph.node_count(); ++u) {
    if (!net.celebrity[u]) {
      EXPECT_LE(net.graph.out_degree(u), 30u);
    } else {
      celebrity_over_cap |= net.graph.out_degree(u) > 30u;
    }
  }
  EXPECT_TRUE(celebrity_over_cap);
}

TEST(GraphGen, GeoMixingZeroKeepsEdgesDomestic) {
  GraphGenConfig config = google_plus_preset(5000, 5);
  config.geo_mixing = 0.0;
  const PopulationModel population;
  const geo::World world;
  const auto net = generate_network(config, population, world);
  for (graph::NodeId u = 0; u < net.graph.node_count(); ++u) {
    for (graph::NodeId v : net.graph.out_neighbors(u)) {
      EXPECT_EQ(net.country[u], net.country[v]);
    }
  }
}

TEST(GraphGen, TwitterPresetLessReciprocalThanGooglePlus) {
  const PopulationModel population;
  const geo::World world;
  const auto gplus =
      generate_network(google_plus_preset(20'000, 6), population, world);
  const auto twitter =
      generate_network(twitter_like_preset(20'000, 6), population, world);
  EXPECT_LT(algo::global_reciprocity(twitter.graph) + 0.05,
            algo::global_reciprocity(gplus.graph));
}

TEST(GraphGen, FacebookPresetIsFullyReciprocal) {
  const PopulationModel population;
  const geo::World world;
  const auto fb =
      generate_network(facebook_like_preset(10'000, 7), population, world);
  EXPECT_GT(algo::global_reciprocity(fb.graph), 0.95);
}

TEST(GraphGen, RejectsDegenerateConfigs) {
  const PopulationModel population;
  const geo::World world;
  GraphGenConfig tiny;
  tiny.node_count = 1;
  EXPECT_THROW(generate_network(tiny, population, world),
               std::invalid_argument);
  GraphGenConfig bad = google_plus_preset(100, 1);
  bad.celebrity_fraction = 1.5;
  EXPECT_THROW(generate_network(bad, population, world), std::invalid_argument);
}

TEST(GraphGen, SmallNetworksStillConnectSomewhat) {
  const PopulationModel population;
  const geo::World world;
  const auto net =
      generate_network(google_plus_preset(500, 8), population, world);
  EXPECT_GT(net.graph.edge_count(), 500u);
}

}  // namespace
}  // namespace gplus::synth
