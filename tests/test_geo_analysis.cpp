#include "core/geo_analysis.h"

#include <gtest/gtest.h>

#include <set>

#include "stats/descriptive.h"

namespace gplus::core {
namespace {

class GeoAnalysisTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new Dataset(make_standard_dataset(60'000, 42));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }
  static Dataset* ds_;
};

Dataset* GeoAnalysisTest::ds_ = nullptr;

TEST_F(GeoAnalysisTest, LocatedFractionNearPaper) {
  std::size_t located = 0;
  for (graph::NodeId u = 0; u < ds_->user_count(); ++u) {
    located += ds_->located(u);
  }
  // Paper: 26.75% of users share "places lived".
  EXPECT_NEAR(static_cast<double>(located) / ds_->user_count(), 0.2675, 0.04);
}

TEST_F(GeoAnalysisTest, CountrySharesMatchFig6) {
  const auto shares = located_country_shares(*ds_);
  ASSERT_FALSE(shares.empty());
  // US first with ~31%, India second with ~17%.
  EXPECT_EQ(geo::country(shares[0].country).code, "US");
  EXPECT_NEAR(shares[0].fraction, 0.3138, 0.05);
  EXPECT_EQ(geo::country(shares[1].country).code, "IN");
  EXPECT_NEAR(shares[1].fraction, 0.1671, 0.05);
  // Named-country fractions are sorted descending and leave the "Other"
  // long-tail mass (the ZZ aggregate) out of the ranking, as Fig 6 does.
  double total = 0.0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    total += shares[i].fraction;
    if (i > 0) {
      EXPECT_GE(shares[i - 1].users, shares[i].users);
    }
    EXPECT_FALSE(geo::country(shares[i].country).aggregate);
  }
  EXPECT_GT(total, 0.7);
  EXPECT_LT(total, 1.0);
}

TEST_F(GeoAnalysisTest, PaperTopTenEmergesInOrderOfMagnitude) {
  // Every paper top-10 country must outrank every named tail country.
  const auto shares = located_country_shares(*ds_);
  std::set<std::string_view> top10_codes;
  for (auto c : geo::paper_top10()) top10_codes.insert(geo::country(c).code);
  for (std::size_t i = 0; i < 10 && i < shares.size(); ++i) {
    EXPECT_TRUE(top10_codes.contains(geo::country(shares[i].country).code))
        << "rank " << i << " is " << geo::country(shares[i].country).code;
  }
}

TEST_F(GeoAnalysisTest, PenetrationIndiaTopsUs) {
  const auto points = penetration_by_country(*ds_);
  ASSERT_FALSE(points.empty());
  // Fig 7a: India has the highest Google+ penetration rate; the US sits
  // well below despite its larger user count.
  double india_gpr = 0.0, us_gpr = 0.0;
  for (const auto& p : points) {
    const auto code = geo::country(p.country).code;
    if (code == "IN") india_gpr = p.gpr;
    if (code == "US") us_gpr = p.gpr;
  }
  EXPECT_GT(india_gpr, us_gpr);
  EXPECT_DOUBLE_EQ(points[0].gpr_relative, 1.0);  // normalized leader
  // Sorted descending by GPR.
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i - 1].gpr, points[i].gpr);
  }
}

TEST_F(GeoAnalysisTest, IprTracksGdpButGprDoesNot) {
  // Fig 7b: IPR and GDP per capita are nearly linear; Fig 7a: GPR is not.
  const auto points = penetration_by_country(*ds_);
  std::vector<double> gdp, ipr;
  for (const auto& p : points) {
    gdp.push_back(p.gdp_per_capita);
    ipr.push_back(p.ipr);
  }
  EXPECT_GT(stats::pearson_correlation(gdp, ipr), 0.6);
}

TEST_F(GeoAnalysisTest, CountryFieldsCcdfStartsAtTwo) {
  const auto us = *geo::find_country("US");
  const auto curve = country_fields_ccdf(*ds_, us);
  ASSERT_FALSE(curve.empty());
  // Located users share at least Name + Places lived.
  EXPECT_GE(curve.front().x, 2.0);
  EXPECT_DOUBLE_EQ(curve.front().y, 1.0);
}

TEST_F(GeoAnalysisTest, OpennessOrderingIndonesiaVsGermany) {
  const auto id_curve = country_fields_ccdf(*ds_, *geo::find_country("ID"));
  const auto de_curve = country_fields_ccdf(*ds_, *geo::find_country("DE"));
  ASSERT_FALSE(id_curve.empty());
  ASSERT_FALSE(de_curve.empty());
  auto over = [](const std::vector<stats::CurvePoint>& c, double x) {
    double y = 0.0;
    for (const auto& p : c) {
      if (p.x > x) return y;
      y = p.y;
    }
    return y;
  };
  // Fig 8: Indonesians share more fields than Germans.
  EXPECT_GT(over(id_curve, 6.0), over(de_curve, 6.0));
}

TEST_F(GeoAnalysisTest, PathMilesFriendsCloserThanRandom) {
  stats::Rng rng(3);
  const auto samples = sample_path_miles(*ds_, 20'000, rng);
  ASSERT_GT(samples.friends.size(), 1000u);
  ASSERT_GT(samples.reciprocal.size(), 500u);
  ASSERT_GT(samples.random.size(), 1000u);

  const double friends_mean = stats::mean(samples.friends);
  const double recip_mean = stats::mean(samples.reciprocal);
  const double random_mean = stats::mean(samples.random);
  // Fig 9a ordering: reciprocal <= friends < random.
  EXPECT_LT(friends_mean, random_mean * 0.8);
  EXPECT_LE(recip_mean, friends_mean * 1.05);

  // Paper: ~58% of friend pairs within 1,000 miles; band is generous.
  std::size_t close = 0;
  for (double d : samples.friends) close += d < 1000.0;
  EXPECT_GT(static_cast<double>(close) / samples.friends.size(), 0.45);
}

TEST_F(GeoAnalysisTest, PathMilesByCountryCoversTop10) {
  const auto rows = path_miles_by_country(*ds_);
  ASSERT_EQ(rows.size(), 10u);
  for (const auto& row : rows) {
    EXPECT_GT(row.edges, 0u) << geo::country(row.country).code;
    EXPECT_GE(row.mean_miles, 0.0);
    EXPECT_GE(row.stddev_miles, 0.0);
  }
  // Small countries are not systematically shorter (paper's negative
  // finding): the UK's mean exceeds a tenth of the US's.
  double us_mean = 0.0, gb_mean = 0.0;
  for (const auto& row : rows) {
    const auto code = geo::country(row.country).code;
    if (code == "US") us_mean = row.mean_miles;
    if (code == "GB") gb_mean = row.mean_miles;
  }
  EXPECT_GT(gb_mean, us_mean * 0.1);
}

TEST_F(GeoAnalysisTest, CountryLinkGraphMatchesFig10Patterns) {
  const auto graph = country_link_graph(*ds_);
  ASSERT_EQ(graph.countries.size(), 10u);
  ASSERT_EQ(graph.weight.size(), 10u);

  std::size_t us = 0, gb = 0, in = 0, br = 0, ca = 0;
  for (std::size_t i = 0; i < graph.countries.size(); ++i) {
    const auto code = geo::country(graph.countries[i]).code;
    if (code == "US") us = i;
    if (code == "GB") gb = i;
    if (code == "IN") in = i;
    if (code == "BR") br = i;
    if (code == "CA") ca = i;
  }
  // Rows sum to at most 1 (mass to non-top-10 countries is dropped).
  for (const auto& row : graph.weight) {
    double total = 0.0;
    for (double w : row) {
      EXPECT_GE(w, 0.0);
      total += w;
    }
    EXPECT_LE(total, 1.0 + 1e-9);
  }
  // Inward-looking: US/IN/BR self-loops ~0.75+; outward: GB/CA ~0.3.
  EXPECT_GT(graph.self_loop(us), 0.65);
  EXPECT_GT(graph.self_loop(in), 0.6);
  EXPECT_GT(graph.self_loop(br), 0.6);
  EXPECT_LT(graph.self_loop(gb), 0.5);
  EXPECT_LT(graph.self_loop(ca), 0.5);
  // GB's largest foreign destination is the US.
  for (std::size_t j = 0; j < graph.countries.size(); ++j) {
    if (j == gb || j == us) continue;
    EXPECT_GE(graph.weight[gb][us], graph.weight[gb][j]);
  }
}

TEST(GeoAnalysis, PathMilesRejectsZeroBudget) {
  const auto ds = make_standard_dataset(2000, 1);
  stats::Rng rng(1);
  EXPECT_THROW(sample_path_miles(ds, 0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace gplus::core
