#include "evolve/growth.h"

#include <gtest/gtest.h>

namespace gplus::evolve {
namespace {

// One shared simulation: construction is the expensive part.
class GrowthTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GrowthConfig config;
    config.final_node_count = 20'000;
    sim_ = new GrowthSimulation(config);
  }
  static void TearDownTestSuite() {
    delete sim_;
    sim_ = nullptr;
  }
  static GrowthSimulation* sim_;
};

GrowthSimulation* GrowthTest::sim_ = nullptr;

TEST_F(GrowthTest, RegistrationCurveIsMonotoneAndComplete) {
  EXPECT_EQ(sim_->node_count_at(0), 0u);
  for (int d = 1; d <= sim_->days(); ++d) {
    EXPECT_GE(sim_->node_count_at(d), sim_->node_count_at(d - 1));
  }
  EXPECT_EQ(sim_->node_count_at(sim_->days()), 20'000u);
}

TEST_F(GrowthTest, JoinDaysAlignWithCurve) {
  const auto& joins = sim_->join_days();
  ASSERT_EQ(joins.size(), 20'000u);
  for (std::size_t u = 1; u < joins.size(); ++u) {
    EXPECT_LE(joins[u - 1], joins[u]);  // ids assigned in join order
  }
  for (int d = 1; d <= sim_->days(); ++d) {
    // node_count_at(d) users have join day <= d.
    const auto count = sim_->node_count_at(d);
    if (count > 0) {
      EXPECT_LE(joins[count - 1], d);
    }
    if (count < joins.size()) {
      EXPECT_GT(joins[count], d);
    }
  }
}

TEST_F(GrowthTest, OpenSignupCreatesAVisibleTransition) {
  const auto curve = adoption_curve(*sim_);
  // The detected transition lands at the open-signup day (±2 for
  // rounding of the two curve pieces).
  EXPECT_NEAR(curve.transition_day, sim_->config().invite_only_days + 1, 2.0);
  // Invite-phase growth is tiny compared to the open-phase peak.
  EXPECT_GT(curve.daily_new[static_cast<std::size_t>(curve.peak_day)],
            10 * curve.daily_new[static_cast<std::size_t>(
                     sim_->config().invite_only_days / 2)]);
  EXPECT_GT(curve.peak_day, sim_->config().invite_only_days);
}

TEST_F(GrowthTest, EdgesOnlyBetweenJoinedUsers) {
  for (int day : {30, 90, 120, 180}) {
    const auto g = sim_->snapshot(day);
    EXPECT_EQ(g.node_count(), sim_->node_count_at(day));
    EXPECT_EQ(g.edge_count(), sim_->edge_count_at(day));
  }
}

TEST_F(GrowthTest, SnapshotsAreCumulative) {
  const auto early = sim_->snapshot(60);
  const auto late = sim_->snapshot(180);
  EXPECT_LE(early.edge_count(), late.edge_count());
  // Every early edge survives into the late snapshot.
  for (const auto& e : early.edges()) {
    EXPECT_TRUE(late.has_edge(e.from, e.to));
  }
}

TEST_F(GrowthTest, DensificationLawHolds) {
  stats::Rng rng(1);
  const std::vector<int> days = {40, 70, 95, 110, 130, 150, 180};
  const auto series = measure_growth(*sim_, days, 60, rng);
  ASSERT_EQ(series.size(), days.size());
  const auto fit = densification_fit(series);
  // Leskovec et al.: densification exponent strictly above 1 (and below 2).
  EXPECT_GT(fit.slope, 1.0);
  EXPECT_LT(fit.slope, 2.0);
  EXPECT_GT(fit.r_squared, 0.9);
  // Mean degree grows over time.
  EXPECT_GT(series.back().mean_degree, series.front().mean_degree);
}

TEST_F(GrowthTest, EffectiveDiameterDoesNotGrow) {
  stats::Rng rng(2);
  const std::vector<int> days = {60, 180};
  const auto series = measure_growth(*sim_, days, 80, rng);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_GT(series[0].effective_diameter, 0.0);
  // Non-growing effective diameter ([28]): while the network grows ~5x,
  // the 90th-percentile distance stays put (tolerance one hop for
  // sampling noise) instead of growing like log n would suggest.
  EXPECT_LE(series[1].effective_diameter, series[0].effective_diameter + 1.0);
}

TEST_F(GrowthTest, GiantComponentEmerges) {
  stats::Rng rng(3);
  const auto series = measure_growth(*sim_, {180}, 40, rng);
  EXPECT_GT(series[0].giant_wcc_fraction, 0.8);
}

TEST(Growth, DeterministicForSameSeed) {
  GrowthConfig config;
  config.final_node_count = 2'000;
  const GrowthSimulation a(config);
  const GrowthSimulation b(config);
  EXPECT_EQ(a.edge_count_at(config.days), b.edge_count_at(config.days));
  EXPECT_EQ(a.join_days(), b.join_days());
}

TEST(Growth, RejectsBadConfigs) {
  GrowthConfig bad;
  bad.final_node_count = 10;  // too small
  EXPECT_THROW(GrowthSimulation{bad}, std::invalid_argument);
  GrowthConfig bad_days;
  bad_days.days = 1;
  EXPECT_THROW(GrowthSimulation{bad_days}, std::invalid_argument);
  GrowthConfig bad_invite;
  bad_invite.invite_only_days = 200;
  EXPECT_THROW(GrowthSimulation{bad_invite}, std::invalid_argument);
  GrowthConfig bad_share;
  bad_share.invite_phase_share = 0.0;
  EXPECT_THROW(GrowthSimulation{bad_share}, std::invalid_argument);
}

TEST(Growth, SnapshotDayValidation) {
  GrowthConfig config;
  config.final_node_count = 1'000;
  const GrowthSimulation sim(config);
  EXPECT_THROW(sim.snapshot(-1), std::invalid_argument);
  EXPECT_THROW(sim.snapshot(config.days + 1), std::invalid_argument);
  EXPECT_NO_THROW(sim.snapshot(0));
}

TEST(Growth, CapIsRespected) {
  GrowthConfig config;
  config.final_node_count = 3'000;
  config.out_degree_cap = 40;
  const GrowthSimulation sim(config);
  const auto g = sim.snapshot(config.days);
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_LE(g.out_degree(u), 40u);
  }
}

TEST(Growth, DensificationFitRejectsDegenerateSeries) {
  std::vector<GrowthMetrics> empty;
  EXPECT_THROW(densification_fit(empty), std::invalid_argument);
}

}  // namespace
}  // namespace gplus::evolve
