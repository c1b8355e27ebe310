#include "crawler/samplers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "graph/builder.h"

namespace gplus::crawler {
namespace {

using graph::GraphBuilder;
using graph::NodeId;

// Hub-heavy test universe: one celebrity (node 0) mutually linked with 60
// fans; fans also form a mutual ring, so walks can move without the hub.
struct Universe {
  graph::DiGraph graph;
  std::vector<synth::Profile> profiles;

  Universe() {
    GraphBuilder b;
    for (NodeId v = 1; v <= 60; ++v) b.add_reciprocal_edge(0, v);
    for (NodeId v = 1; v <= 60; ++v) {
      b.add_reciprocal_edge(v, v == 60 ? 1 : v + 1);
    }
    graph = b.build();
    profiles.assign(graph.node_count(), synth::Profile{});
  }

  service::SocialService service(service::ServiceConfig config = {}) {
    return service::SocialService(&graph, profiles, config);
  }
};

TEST(Samplers, NamesAreDistinct) {
  std::set<std::string_view> names;
  for (auto kind : {SamplerKind::kBfs, SamplerKind::kRandomWalk,
                    SamplerKind::kMetropolisHastings,
                    SamplerKind::kUniformOracle}) {
    EXPECT_TRUE(names.insert(sampler_name(kind)).second);
  }
}

TEST(Samplers, CollectDistinctUsersUpToTarget) {
  Universe u;
  for (auto kind : {SamplerKind::kBfs, SamplerKind::kRandomWalk,
                    SamplerKind::kMetropolisHastings,
                    SamplerKind::kUniformOracle}) {
    auto svc = u.service();
    SamplerOptions options;
    options.target_users = 20;
    const auto result = sample_users(svc, kind, options);
    EXPECT_EQ(result.users.size(), 20u) << sampler_name(kind);
    std::set<NodeId> distinct(result.users.begin(), result.users.end());
    EXPECT_EQ(distinct.size(), result.users.size()) << sampler_name(kind);
    EXPECT_GT(result.requests, 0u);
    EXPECT_GT(result.mean_in_degree, 0.0);
  }
}

TEST(Samplers, ExhaustiveTargetsStopAtUniverse) {
  Universe u;
  auto svc = u.service();
  SamplerOptions options;
  options.target_users = 10'000;  // more than exists
  options.max_steps = 100'000;
  const auto result = sample_users(svc, SamplerKind::kUniformOracle, options);
  EXPECT_EQ(result.users.size(), u.graph.node_count());
}

TEST(Samplers, BfsVisitsSeedFirst) {
  Universe u;
  auto svc = u.service();
  SamplerOptions options;
  options.seed_node = 5;
  options.target_users = 10;
  const auto result = sample_users(svc, SamplerKind::kBfs, options);
  ASSERT_FALSE(result.users.empty());
  EXPECT_EQ(result.users.front(), 5u);
}

TEST(Samplers, RandomWalkOversamplesTheHub) {
  // The hub (degree 60) should enter a small RW sample almost surely and
  // lift the sample's mean degree above the population's.
  Universe u;
  auto svc = u.service();
  SamplerOptions options;
  options.seed_node = 7;
  options.target_users = 15;
  options.teleport = 0.0;
  const auto rw = sample_users(svc, SamplerKind::kRandomWalk, options);
  double truth_mean = 0.0;
  for (NodeId v = 0; v < u.graph.node_count(); ++v) {
    truth_mean += static_cast<double>(u.graph.in_degree(v));
  }
  truth_mean /= static_cast<double>(u.graph.node_count());
  EXPECT_GT(rw.mean_in_degree, truth_mean);
}

TEST(Samplers, MhrwSuppressesHubVisitsVersusRandomWalk) {
  // A fan's neighbor list is {hub, ring-left, ring-right}: the raw walk
  // steps onto the hub with probability 1/3, while MHRW accepts the hub
  // proposal only with probability deg(fan)/deg(hub) = 6/120. Over many
  // short runs, the hub should appear in far fewer MHRW samples.
  Universe u;
  int rw_hub = 0, mh_hub = 0;
  constexpr int kRuns = 25;
  for (int run = 0; run < kRuns; ++run) {
    SamplerOptions options;
    options.seed_node = 3;
    options.target_users = 6;
    options.teleport = 0.0;
    options.rng_seed = 1000 + static_cast<std::uint64_t>(run);
    auto contains_hub = [](const SampleResult& r) {
      for (NodeId v : r.users) {
        if (v == 0) return true;
      }
      return false;
    };
    auto svc1 = u.service();
    rw_hub +=
        contains_hub(sample_users(svc1, SamplerKind::kRandomWalk, options));
    auto svc2 = u.service();
    mh_hub += contains_hub(
        sample_users(svc2, SamplerKind::kMetropolisHastings, options));
  }
  EXPECT_GT(rw_hub, mh_hub + kRuns / 4);
}

TEST(Samplers, HiddenListsForceRestarts) {
  Universe u;
  service::ServiceConfig sconfig;
  sconfig.hidden_list_fraction = 1.0;  // every walk step dead-ends
  auto svc = u.service(sconfig);
  SamplerOptions options;
  options.target_users = 5;
  options.max_steps = 500;
  const auto result = sample_users(svc, SamplerKind::kRandomWalk, options);
  // Restarts only reach already-seen users, so the walk stays at the seed.
  EXPECT_EQ(result.users.size(), 1u);
  EXPECT_EQ(result.steps, 500u);
}

TEST(Samplers, RejectsBadOptions) {
  Universe u;
  auto svc = u.service();
  SamplerOptions bad_seed;
  bad_seed.seed_node = 10'000;
  EXPECT_THROW(sample_users(svc, SamplerKind::kBfs, bad_seed),
               std::invalid_argument);
  SamplerOptions zero_target;
  zero_target.target_users = 0;
  EXPECT_THROW(sample_users(svc, SamplerKind::kBfs, zero_target),
               std::invalid_argument);
  SamplerOptions bad_teleport;
  bad_teleport.teleport = 1.5;
  EXPECT_THROW(sample_users(svc, SamplerKind::kRandomWalk, bad_teleport),
               std::invalid_argument);
}

TEST(Samplers, DeterministicForSameSeed) {
  Universe u;
  SamplerOptions options;
  options.target_users = 12;
  options.rng_seed = 5;
  auto svc1 = u.service();
  const auto a = sample_users(svc1, SamplerKind::kMetropolisHastings, options);
  auto svc2 = u.service();
  const auto b = sample_users(svc2, SamplerKind::kMetropolisHastings, options);
  EXPECT_EQ(a.users, b.users);
  EXPECT_EQ(a.steps, b.steps);
}

}  // namespace
}  // namespace gplus::crawler
