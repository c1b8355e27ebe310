#include "service/service.h"

#include <gtest/gtest.h>

#include <tuple>

#include "graph/builder.h"

namespace gplus::service {
namespace {

using graph::GraphBuilder;
using graph::NodeId;

// Fixture: star service where node 0 is followed by nodes 1..N.
class ServiceTest : public ::testing::Test {
 protected:
  void build(NodeId followers, ServiceConfig config) {
    GraphBuilder b;
    for (NodeId v = 1; v <= followers; ++v) b.add_edge(v, 0);
    b.add_edge(0, 1);  // node 0 follows node 1
    graph_ = b.build();
    profiles_.assign(graph_.node_count(), synth::Profile{});
    service_.emplace(&graph_, profiles_, config);
  }

  graph::DiGraph graph_;
  std::vector<synth::Profile> profiles_;
  std::optional<SocialService> service_;
};

TEST_F(ServiceTest, ProfilePageShowsTrueTotals) {
  build(12, ServiceConfig{});
  const auto page = service_->fetch_profile(0);
  EXPECT_EQ(page.id, 0u);
  EXPECT_EQ(page.have_in_circles_total, 12u);
  EXPECT_EQ(page.in_their_circles_total, 1u);
  EXPECT_TRUE(page.lists_public);
}

TEST_F(ServiceTest, PrivacyFiltersRestrictedFields) {
  build(3, ServiceConfig{});
  profiles_[0].gender = synth::Gender::kFemale;
  profiles_[0].relationship = synth::Relationship::kMarried;
  profiles_[0].occupation = synth::Occupation::kJournalist;
  profiles_[0].country = 0;

  // Nothing shared: all optionals empty.
  auto page = service_->fetch_profile(0);
  EXPECT_FALSE(page.gender.has_value());
  EXPECT_FALSE(page.relationship.has_value());
  EXPECT_FALSE(page.occupation.has_value());
  EXPECT_FALSE(page.country.has_value());

  profiles_[0].shared.set(synth::Attribute::kGender);
  profiles_[0].shared.set(synth::Attribute::kOccupation);
  page = service_->fetch_profile(0);
  ASSERT_TRUE(page.gender.has_value());
  EXPECT_EQ(*page.gender, synth::Gender::kFemale);
  EXPECT_FALSE(page.relationship.has_value());
  ASSERT_TRUE(page.occupation.has_value());
  EXPECT_EQ(*page.occupation, synth::Occupation::kJournalist);
  // Country needs the Places-lived field.
  EXPECT_FALSE(page.country.has_value());
  profiles_[0].shared.set(synth::Attribute::kPlacesLived);
  page = service_->fetch_profile(0);
  ASSERT_TRUE(page.country.has_value());
  EXPECT_EQ(*page.country, 0u);
}

TEST_F(ServiceTest, ListPagination) {
  ServiceConfig config;
  config.page_size = 5;
  build(12, config);

  auto page0 = service_->fetch_list(0, ListKind::kHaveInCircles, 0);
  EXPECT_EQ(page0.users.size(), 5u);
  EXPECT_TRUE(page0.has_more);
  EXPECT_FALSE(page0.capped);

  auto page2 = service_->fetch_list(0, ListKind::kHaveInCircles, 10);
  EXPECT_EQ(page2.users.size(), 2u);
  EXPECT_FALSE(page2.has_more);

  auto past = service_->fetch_list(0, ListKind::kHaveInCircles, 100);
  EXPECT_TRUE(past.users.empty());
  EXPECT_FALSE(past.has_more);
}

TEST_F(ServiceTest, CircleCapTruncatesList) {
  ServiceConfig config;
  config.circle_list_cap = 8;
  config.page_size = 100;
  build(12, config);

  const auto page = service_->fetch_list(0, ListKind::kHaveInCircles, 0);
  EXPECT_EQ(page.users.size(), 8u);
  EXPECT_TRUE(page.capped);
  EXPECT_FALSE(page.has_more);
  // The profile page still displays the true total.
  EXPECT_EQ(service_->fetch_profile(0).have_in_circles_total, 12u);
}

TEST_F(ServiceTest, FetchFullListCountsOneRequestPerPage) {
  ServiceConfig config;
  config.page_size = 5;
  build(12, config);
  service_->reset_request_count();
  const auto list = service_->fetch_full_list(0, ListKind::kHaveInCircles);
  EXPECT_EQ(list.size(), 12u);
  EXPECT_EQ(service_->request_count(), 3u);  // pages of 5, 5, 2
}

TEST_F(ServiceTest, OutListMirrorsOutNeighbors) {
  build(4, ServiceConfig{});
  const auto list = service_->fetch_full_list(0, ListKind::kInTheirCircles);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0], 1u);
}

TEST_F(ServiceTest, HiddenListsReturnNothingButProfileRenders) {
  ServiceConfig config;
  config.hidden_list_fraction = 1.0;
  build(6, config);
  EXPECT_FALSE(service_->lists_public(0));
  const auto page = service_->fetch_list(0, ListKind::kHaveInCircles, 0);
  EXPECT_TRUE(page.users.empty());
  EXPECT_FALSE(page.has_more);
  const auto profile = service_->fetch_profile(0);
  EXPECT_FALSE(profile.lists_public);
  EXPECT_EQ(profile.have_in_circles_total, 6u);
}

TEST_F(ServiceTest, HiddenFractionIsDeterministicAndProportional) {
  ServiceConfig config;
  config.hidden_list_fraction = 0.3;
  build(2000, config);
  std::size_t hidden = 0;
  for (NodeId u = 0; u < graph_.node_count(); ++u) {
    hidden += !service_->lists_public(u);
    EXPECT_EQ(service_->lists_public(u), service_->lists_public(u));
  }
  EXPECT_NEAR(static_cast<double>(hidden) / graph_.node_count(), 0.3, 0.05);
}

TEST_F(ServiceTest, RequestCounting) {
  build(3, ServiceConfig{});
  service_->reset_request_count();
  (void)service_->fetch_profile(0);
  (void)service_->fetch_list(0, ListKind::kHaveInCircles, 0);
  (void)service_->fetch_list(0, ListKind::kInTheirCircles, 0);
  EXPECT_EQ(service_->request_count(), 3u);
}

TEST_F(ServiceTest, InvalidNodeRejected) {
  build(2, ServiceConfig{});
  EXPECT_THROW(service_->fetch_profile(99), std::invalid_argument);
  EXPECT_THROW(service_->fetch_list(99, ListKind::kHaveInCircles, 0),
               std::invalid_argument);
}

TEST(Service, ConstructorValidatesArguments) {
  graph::GraphBuilder b;
  b.add_edge(0, 1);
  const auto g = b.build();
  std::vector<synth::Profile> wrong_size(1);
  EXPECT_THROW(SocialService(&g, wrong_size, ServiceConfig{}),
               std::invalid_argument);
  std::vector<synth::Profile> right_size(2);
  ServiceConfig zero_page;
  zero_page.page_size = 0;
  EXPECT_THROW(SocialService(&g, right_size, zero_page), std::invalid_argument);
  EXPECT_THROW(SocialService(nullptr, right_size, ServiceConfig{}),
               std::invalid_argument);
}


// Property sweep: pagination must reassemble the exact list for any page
// size and any cap.
class ServicePagination : public ::testing::TestWithParam<
                              std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(ServicePagination, FullListIsExactPrefixOfNeighbors) {
  const auto [page_size, cap] = GetParam();
  GraphBuilder b;
  constexpr NodeId kFollowers = 137;
  for (NodeId v = 1; v <= kFollowers; ++v) b.add_edge(v, 0);
  const auto g = b.build();
  std::vector<synth::Profile> profiles(g.node_count());
  ServiceConfig config;
  config.page_size = page_size;
  config.circle_list_cap = cap;
  SocialService svc(&g, profiles, config);

  const auto list = svc.fetch_full_list(0, ListKind::kHaveInCircles);
  const auto expected_size =
      std::min<std::size_t>(kFollowers, cap);
  ASSERT_EQ(list.size(), expected_size);
  const auto truth = g.in_neighbors(0);
  for (std::size_t i = 0; i < list.size(); ++i) {
    ASSERT_EQ(list[i], truth[i]) << "page_size " << page_size << " cap " << cap;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PageAndCap, ServicePagination,
    ::testing::Combine(::testing::Values(1u, 7u, 64u, 1000u),
                       ::testing::Values(5u, 137u, 10'000u)));

}  // namespace
}  // namespace gplus::service
