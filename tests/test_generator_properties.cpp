// Property sweep: generator invariants that must hold for every seed and
// scale, not just the calibrated default.
#include <gtest/gtest.h>

#include <tuple>

#include "algo/clustering.h"
#include "algo/degrees.h"
#include "algo/reciprocity.h"
#include "algo/rewire.h"
#include "algo/scc.h"
#include "core/dataset.h"
#include "geo/coords.h"
#include "synth/stream_gen.h"

namespace gplus {
namespace {

using Param = std::tuple<std::uint64_t /*seed*/, std::size_t /*nodes*/>;

class GeneratorProperties : public ::testing::TestWithParam<Param> {
 protected:
  static core::Dataset make() {
    const auto [seed, nodes] = GetParam();
    return core::make_standard_dataset(nodes, seed);
  }
};

TEST_P(GeneratorProperties, StructuralInvariants) {
  const auto ds = make();
  const auto& g = ds.graph();
  const auto [seed, nodes] = GetParam();
  ASSERT_EQ(g.node_count(), nodes);
  ASSERT_EQ(ds.profiles.size(), nodes);

  // No self-loops; adjacency sorted and deduplicated by construction.
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    ASSERT_FALSE(g.has_edge(u, u)) << "seed " << seed << " node " << u;
    const auto outs = g.out_neighbors(u);
    for (std::size_t i = 1; i < outs.size(); ++i) {
      ASSERT_LT(outs[i - 1], outs[i]);
    }
  }
}

TEST_P(GeneratorProperties, ProfileInvariants) {
  const auto ds = make();
  for (graph::NodeId u = 0; u < ds.user_count(); ++u) {
    const auto& p = ds.profiles[u];
    // Name always public; latent facts in range; home coordinate valid.
    ASSERT_TRUE(p.shared.test(synth::Attribute::kName));
    ASSERT_LT(static_cast<std::size_t>(p.gender), synth::kGenderCount);
    ASSERT_LT(static_cast<std::size_t>(p.relationship),
              synth::kRelationshipCount);
    ASSERT_LT(static_cast<std::size_t>(p.occupation), synth::kOccupationCount);
    ASSERT_LT(p.country, geo::country_count());
    ASSERT_TRUE(geo::is_valid(p.home));
    ASSERT_GE(p.openness, 0.0F);
    ASSERT_LE(p.openness, 1.0F);
    // Located implies the latent country is set (it always is here).
    if (p.is_located()) {
      ASSERT_NE(p.country, geo::kNoCountry);
    }
  }
}

TEST_P(GeneratorProperties, MetricsStayInSaneBands) {
  const auto ds = make();
  const auto& g = ds.graph();
  // Broad bands — these hold at any seed/scale in the sweep, while the
  // tight paper bands are asserted on the calibrated default elsewhere.
  EXPECT_GT(g.mean_degree(), 8.0);
  EXPECT_LT(g.mean_degree(), 25.0);
  const double reciprocity = algo::global_reciprocity(g);
  EXPECT_GT(reciprocity, 0.2);
  EXPECT_LT(reciprocity, 0.55);
  const auto wcc = algo::weakly_connected_components(g);
  EXPECT_GT(wcc.giant_fraction(), 0.85);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, GeneratorProperties,
    ::testing::Values(Param{1, 4000}, Param{2, 4000}, Param{3, 4000},
                      Param{99, 8000}, Param{12345, 8000},
                      Param{0xDEADBEEF, 16000}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Streaming-vs-in-RAM generator fidelity (the PR 6 residual): the
// streaming generator deliberately has no triadic-closure or community
// mechanism, so it understates clustering. Motif calibration must close
// most of that gap while preserving the streaming degree sequence, and
// the closed gap is pinned here as a regression-tested number.

class StreamingCalibration : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 10'000;
  static constexpr std::uint64_t kSeed = 5;

  static graph::DiGraph materialize_streaming() {
    synth::PopulationModel population;
    geo::World world;
    synth::StreamGenConfig config;
    config.node_count = kNodes;
    config.seed = kSeed;
    const synth::StreamingGraphGen gen(config, population, world);
    std::vector<graph::Edge> edges;
    gen.stream_edges([&](graph::NodeId src, graph::NodeId dst) {
      edges.push_back({src, dst});
    });
    // Builders drop duplicates and self-loops; from_edges does the same.
    return graph::DiGraph::from_edges(static_cast<graph::NodeId>(kNodes),
                                      edges);
  }

  static void SetUpTestSuite() {
    in_ram_ = new core::Dataset(core::make_standard_dataset(kNodes, kSeed));
    streaming_ = new graph::DiGraph(materialize_streaming());
  }
  static void TearDownTestSuite() {
    delete in_ram_;
    delete streaming_;
    in_ram_ = nullptr;
    streaming_ = nullptr;
  }
  static const graph::DiGraph& in_ram() { return in_ram_->graph(); }
  static const graph::DiGraph& streaming() { return *streaming_; }

 private:
  static core::Dataset* in_ram_;
  static graph::DiGraph* streaming_;
};

core::Dataset* StreamingCalibration::in_ram_ = nullptr;
graph::DiGraph* StreamingCalibration::streaming_ = nullptr;

TEST_F(StreamingCalibration, StreamingUnderstatesClusteringBeforeCalibration) {
  const double ram_c = algo::average_clustering_coefficient(in_ram());
  const double stream_c = algo::average_clustering_coefficient(streaming());
  // The documented gap this suite exists to measure: without triadic
  // closure the streaming generator lands well under the in-RAM model.
  EXPECT_GT(ram_c, 0.10);
  EXPECT_LT(stream_c, ram_c * 0.5);
  // Reciprocity, by contrast, survives streaming generation.
  const double ram_r = algo::global_reciprocity(in_ram());
  const double stream_r = algo::global_reciprocity(streaming());
  EXPECT_NEAR(stream_r, ram_r, 0.12);
}

TEST_F(StreamingCalibration, CalibrationClosesMostOfTheClusteringGap) {
  const double ram_c = algo::average_clustering_coefficient(in_ram());
  const double ram_r = algo::global_reciprocity(in_ram());

  algo::RewireObjective objective;
  objective.target_clustering = ram_c;
  objective.target_reciprocity = ram_r;
  algo::CalibrateConfig config;
  config.seed = 17;
  config.max_rounds = 16;
  config.clustering_sample = 0;  // exact at this scale
  config.swaps_per_round_per_edge = 0.10;
  const algo::CalibrationResult result =
      algo::calibrate_to_profile(streaming(), objective, config);

  // Accepted rounds only improve, so the final error never regresses.
  ASSERT_LE(result.final_error, result.initial_error);
  ASSERT_GT(result.rounds_accepted, 0u);

  // Calibration preserves the streaming degree sequences exactly.
  EXPECT_EQ(algo::in_degrees(result.graph), algo::in_degrees(streaming()));
  EXPECT_EQ(algo::out_degrees(result.graph), algo::out_degrees(streaming()));

  // The pinned regression numbers (exact-measured, deterministic in the
  // seeds above; currently C goes 0.044 → 0.128 against a 0.226 target):
  // the clustering gap must shrink by at least 40%, and the
  // post-calibration relative clustering error must stay under 50%
  // (it starts above 80%).
  const double before_gap =
      std::abs(algo::average_clustering_coefficient(streaming()) - ram_c);
  const double after_gap =
      std::abs(result.calibrated.clustering - ram_c);
  EXPECT_LT(after_gap, before_gap * 0.6);
  EXPECT_LT(after_gap / ram_c, 0.50);
  // Reciprocity must not be sacrificed to buy clustering.
  EXPECT_NEAR(result.calibrated.reciprocity, ram_r, 0.10);
}

}  // namespace
}  // namespace gplus
