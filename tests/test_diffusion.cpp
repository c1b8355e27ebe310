#include "stream/diffusion.h"

#include <gtest/gtest.h>

#include "algo/topk.h"

namespace gplus::stream {
namespace {

using graph::NodeId;

class DiffusionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new core::Dataset(core::make_standard_dataset(20'000, 5));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }
  static core::Dataset* ds_;
};

core::Dataset* DiffusionTest::ds_ = nullptr;

TEST_F(DiffusionTest, FollowerlessAuthorReachesNobody) {
  // Find a user with zero followers.
  NodeId lonely = 0;
  bool found = false;
  for (NodeId u = 0; u < ds_->user_count(); ++u) {
    if (ds_->graph().in_degree(u) == 0) {
      lonely = u;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  const DiffusionSimulator sim(ds_, {});
  stats::Rng rng(1);
  const auto cascade = sim.simulate_post(lonely, /*force_public=*/true, rng);
  EXPECT_EQ(cascade.views, 0u);
  EXPECT_EQ(cascade.reshares, 0u);
  EXPECT_EQ(cascade.depth, 0u);
}

TEST_F(DiffusionTest, PublicPostsOutreachCircledPosts) {
  const DiffusionSimulator sim(ds_, {});
  const auto top = algo::top_by_in_degree(ds_->graph(), 5);
  double public_views = 0.0, limited_views = 0.0;
  stats::Rng rng(2);
  for (const auto& author : top) {
    for (int i = 0; i < 5; ++i) {
      public_views += static_cast<double>(
          sim.simulate_post(author.node, true, rng).views);
      limited_views += static_cast<double>(
          sim.simulate_post(author.node, false, rng).views);
    }
  }
  EXPECT_GT(public_views, limited_views * 1.5);
}

TEST_F(DiffusionTest, CelebritySeedsGoViral) {
  const DiffusionSimulator sim(ds_, {});
  stats::Rng rng(3);
  const auto celebrity = algo::top_by_in_degree(ds_->graph(), 1)[0].node;
  const auto celeb_cascade = sim.simulate_post(celebrity, true, rng);
  // A median user's post for comparison.
  NodeId ordinary = 0;
  for (NodeId u = 0; u < ds_->user_count(); ++u) {
    if (!ds_->profiles[u].celebrity && ds_->graph().in_degree(u) >= 3 &&
        ds_->graph().in_degree(u) <= 10) {
      ordinary = u;
      break;
    }
  }
  const auto ordinary_cascade = sim.simulate_post(ordinary, true, rng);
  EXPECT_GT(celeb_cascade.views,
            50 * std::max<std::uint64_t>(1, ordinary_cascade.views));
}

TEST_F(DiffusionTest, ViewsAreDistinctUsers) {
  const DiffusionSimulator sim(ds_, {});
  stats::Rng rng(4);
  const auto author = algo::top_by_in_degree(ds_->graph(), 1)[0].node;
  const auto cascade = sim.simulate_post(author, true, rng);
  EXPECT_LT(cascade.views, ds_->user_count());
  EXPECT_LE(cascade.reshares, cascade.views);
  if (cascade.reshares > 0) {
    EXPECT_GE(cascade.depth, 1u);
  }
}

TEST_F(DiffusionTest, CascadeCapIsHonored) {
  DiffusionConfig config;
  config.reshare_base = 1.0;  // everything reshared: would sweep the graph
  config.max_cascade_views = 500;
  const DiffusionSimulator sim(ds_, config);
  stats::Rng rng(5);
  const auto author = algo::top_by_in_degree(ds_->graph(), 1)[0].node;
  const auto cascade = sim.simulate_post(author, true, rng);
  EXPECT_EQ(cascade.views, 500u);
}

TEST_F(DiffusionTest, BatchSimulationAndSummary) {
  const DiffusionSimulator sim(ds_, {});
  stats::Rng rng(6);
  const auto cascades = sim.simulate_posts(300, rng);
  ASSERT_EQ(cascades.size(), 300u);
  const auto summary = summarize_cascades(cascades);
  EXPECT_EQ(summary.posts, 300u);
  EXPECT_GT(summary.mean_views, 0.0);
  EXPECT_GE(summary.max_views, summary.mean_views);
  EXPECT_GE(summary.reshared_share, 0.0);
  EXPECT_LE(summary.reshared_share, 1.0);
}

TEST_F(DiffusionTest, OpennessRaisesPublicPostRate) {
  const DiffusionSimulator sim(ds_, {});
  stats::Rng rng(7);
  // Compare publicity rates of the most-open vs least-open authors.
  std::size_t open_public = 0, closed_public = 0, trials = 0;
  for (NodeId u = 0; u < ds_->user_count() && trials < 400; ++u) {
    if (ds_->graph().in_degree(u) == 0) continue;
    if (ds_->profiles[u].openness > 0.75) {
      for (int i = 0; i < 3; ++i) {
        open_public += sim.simulate_post(u, rng).public_post;
      }
      ++trials;
    }
  }
  std::size_t trials2 = 0;
  for (NodeId u = 0; u < ds_->user_count() && trials2 < 400; ++u) {
    if (ds_->graph().in_degree(u) == 0) continue;
    if (ds_->profiles[u].openness < 0.35) {
      for (int i = 0; i < 3; ++i) {
        closed_public += sim.simulate_post(u, rng).public_post;
      }
      ++trials2;
    }
  }
  ASSERT_GT(trials, 50u);
  ASSERT_GT(trials2, 50u);
  EXPECT_GT(open_public, closed_public);
}

TEST(Diffusion, RejectsBadConfig) {
  const auto ds = core::make_standard_dataset(2'000, 9);
  DiffusionConfig bad;
  bad.reshare_base = 1.5;
  EXPECT_THROW(DiffusionSimulator(&ds, bad), std::invalid_argument);
  DiffusionConfig zero_cap;
  zero_cap.max_cascade_views = 0;
  EXPECT_THROW(DiffusionSimulator(&ds, zero_cap), std::invalid_argument);
  EXPECT_THROW(DiffusionSimulator(nullptr, DiffusionConfig{}),
               std::invalid_argument);
}

TEST(Diffusion, SummaryOfEmptyBatch) {
  const auto summary = summarize_cascades({});
  EXPECT_EQ(summary.posts, 0u);
  EXPECT_EQ(summary.mean_views, 0.0);
}

}  // namespace
}  // namespace gplus::stream
