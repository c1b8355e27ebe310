#include "crawler/crawler.h"

#include <gtest/gtest.h>

#include "crawler/bias.h"
#include "graph/builder.h"

namespace gplus::crawler {
namespace {

using graph::GraphBuilder;
using graph::NodeId;

struct Fixture {
  graph::DiGraph graph;
  std::vector<synth::Profile> profiles;

  explicit Fixture(graph::DiGraph g)
      : graph(std::move(g)), profiles(graph.node_count()) {}

  service::SocialService service(service::ServiceConfig config = {}) {
    return service::SocialService(&graph, profiles, config);
  }
};

Fixture chain_with_celebrity() {
  // 0 -> 1 -> 2 -> 3 chain plus a celebrity (4) everyone follows.
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  for (NodeId u = 0; u < 4; ++u) b.add_edge(u, 4);
  return Fixture(b.build());
}

TEST(Crawler, FullCrawlRecoversEveryEdge) {
  Fixture fx = chain_with_celebrity();
  auto svc = fx.service();
  CrawlConfig config;
  config.seed_node = 0;
  const auto result = run_bfs_crawl(svc, config);

  EXPECT_EQ(result.node_count(), fx.graph.node_count());
  EXPECT_EQ(result.stats.profiles_crawled, fx.graph.node_count());
  EXPECT_EQ(result.stats.boundary_nodes, 0u);
  EXPECT_EQ(result.graph.edge_count(), fx.graph.edge_count());
  for (NodeId u = 0; u < result.graph.node_count(); ++u) {
    for (NodeId v : result.graph.out_neighbors(u)) {
      EXPECT_TRUE(
          fx.graph.has_edge(result.original_id[u], result.original_id[v]));
    }
  }
}

TEST(Crawler, BidirectionalReachesFollowersOfSeed) {
  // Seed 4 (the celebrity) has only incoming edges; a forward-only BFS
  // would be stuck, the bidirectional crawl walks the in-list.
  Fixture fx = chain_with_celebrity();
  auto svc = fx.service();
  CrawlConfig config;
  config.seed_node = 4;
  const auto result = run_bfs_crawl(svc, config);
  EXPECT_EQ(result.node_count(), 5u);
  EXPECT_EQ(result.graph.edge_count(), fx.graph.edge_count());

  CrawlConfig forward_only = config;
  forward_only.bidirectional = false;
  auto svc2 = fx.service();
  const auto stuck = run_bfs_crawl(svc2, forward_only);
  EXPECT_EQ(stuck.node_count(), 1u);
  EXPECT_EQ(stuck.graph.edge_count(), 0u);
}

TEST(Crawler, MaxProfilesBudgetLeavesBoundary) {
  Fixture fx = chain_with_celebrity();
  auto svc = fx.service();
  CrawlConfig config;
  config.seed_node = 0;
  config.max_profiles = 2;
  const auto result = run_bfs_crawl(svc, config);
  EXPECT_EQ(result.stats.profiles_crawled, 2u);
  EXPECT_GT(result.stats.boundary_nodes, 0u);
  EXPECT_EQ(result.node_count(),
            result.stats.profiles_crawled + result.stats.boundary_nodes);
  // Crawled flags are consistent.
  std::size_t crawled = 0;
  for (auto f : result.crawled) crawled += f;
  EXPECT_EQ(crawled, 2u);
}

TEST(Crawler, DisconnectedPartStaysUnseen) {
  GraphBuilder b;
  b.add_reciprocal_edge(0, 1);
  b.add_reciprocal_edge(2, 3);  // unreachable island
  Fixture fx(b.build());
  auto svc = fx.service();
  CrawlConfig config;
  config.seed_node = 0;
  const auto result = run_bfs_crawl(svc, config);
  EXPECT_EQ(result.node_count(), 2u);
}

TEST(Crawler, HiddenListUsersYieldNoEdges) {
  Fixture fx = chain_with_celebrity();
  service::ServiceConfig sconfig;
  sconfig.hidden_list_fraction = 1.0;
  auto svc = fx.service(sconfig);
  CrawlConfig config;
  config.seed_node = 0;
  const auto result = run_bfs_crawl(svc, config);
  EXPECT_EQ(result.node_count(), 1u);
  EXPECT_EQ(result.graph.edge_count(), 0u);
  EXPECT_EQ(result.stats.hidden_list_users, 1u);
}

TEST(Crawler, StatsAccounting) {
  Fixture fx = chain_with_celebrity();
  auto svc = fx.service();
  CrawlConfig config;
  config.seed_node = 0;
  config.machines = 2;
  const auto result = run_bfs_crawl(svc, config);
  EXPECT_GT(result.stats.requests, 0u);
  EXPECT_EQ(result.stats.requests, svc.request_count());
  EXPECT_GT(result.stats.simulated_hours, 0.0);
  // More machines -> less wall-clock.
  auto svc2 = fx.service();
  CrawlConfig one_machine = config;
  one_machine.machines = 1;
  const auto slow = run_bfs_crawl(svc2, one_machine);
  EXPECT_GT(slow.stats.simulated_hours, result.stats.simulated_hours);
}

TEST(Crawler, CapTruncationFlagsUsersAndLosesEdges) {
  // Celebrity with 30 followers, cap at 10: the in-list is truncated, and
  // followers beyond the cap are only discovered if otherwise linked.
  GraphBuilder b;
  for (NodeId v = 1; v <= 30; ++v) b.add_edge(v, 0);
  Fixture fx(b.build());
  service::ServiceConfig sconfig;
  sconfig.circle_list_cap = 10;
  auto svc = fx.service(sconfig);
  CrawlConfig config;
  config.seed_node = 0;
  const auto result = run_bfs_crawl(svc, config);
  EXPECT_GT(result.stats.capped_users, 0u);
  EXPECT_LT(result.graph.edge_count(), fx.graph.edge_count());
}

TEST(Crawler, LostEdgeEstimateMatchesConstruction) {
  // 40 followers of node 0, cap 10. The crawl sees 10 via the in-list; the
  // estimator compares the displayed total (40) against collected edges.
  GraphBuilder b;
  for (NodeId v = 1; v <= 40; ++v) b.add_edge(v, 0);
  b.add_edge(0, 1);  // make the crawl expand beyond the seed
  Fixture fx(b.build());
  service::ServiceConfig sconfig;
  sconfig.circle_list_cap = 10;
  auto svc = fx.service(sconfig);
  CrawlConfig config;
  config.seed_node = 0;
  const auto result = run_bfs_crawl(svc, config);

  const auto est = estimate_lost_edges(svc, result);
  EXPECT_EQ(est.users_over_cap, 1u);
  EXPECT_EQ(est.displayed_total, 40u);
  // Collected for node 0: 10 from its own in-list, plus edge 1 -> 0 seen in
  // node 1's out-list (already within the cap sample).
  EXPECT_GE(est.collected_total, 10u);
  EXPECT_GT(est.lost_fraction, 0.0);
}

TEST(Crawler, LostEdgeEstimateZeroWithoutCapPressure) {
  Fixture fx = chain_with_celebrity();
  auto svc = fx.service();
  CrawlConfig config;
  config.seed_node = 0;
  const auto result = run_bfs_crawl(svc, config);
  const auto est = estimate_lost_edges(svc, result);
  EXPECT_EQ(est.users_over_cap, 0u);
  EXPECT_DOUBLE_EQ(est.lost_fraction, 0.0);
}

TEST(Crawler, RejectsBadConfig) {
  Fixture fx = chain_with_celebrity();
  auto svc = fx.service();
  CrawlConfig bad_seed;
  bad_seed.seed_node = 99;
  EXPECT_THROW(run_bfs_crawl(svc, bad_seed), std::invalid_argument);
  CrawlConfig no_machines;
  no_machines.machines = 0;
  EXPECT_THROW(run_bfs_crawl(svc, no_machines), std::invalid_argument);
}

// A connected mutual community of 200 users: enough profiles for the
// machine pool's scheduling to show.
Fixture mutual_community() {
  GraphBuilder b;
  for (NodeId u = 0; u < 200; ++u) {
    b.add_reciprocal_edge(u, (u + 1) % 200);
    b.add_reciprocal_edge(u, (u + 7) % 200);
  }
  return Fixture(b.build());
}

TEST(Fleet, CrawlsEverythingReachable) {
  Fixture fx = mutual_community();
  auto svc = fx.service();
  CrawlConfig config;
  const auto result = run_bfs_crawl(svc, config);
  EXPECT_EQ(result.stats.profiles_crawled, fx.graph.node_count());
  EXPECT_EQ(result.stats.requests, svc.request_count());
  EXPECT_GT(result.makespan_days, 0.0);
  EXPECT_EQ(result.machines.size(), 11u);
}

TEST(Fleet, BudgetStopsEarly) {
  Fixture fx = mutual_community();
  auto svc = fx.service();
  CrawlConfig config;
  config.max_profiles = 50;
  const auto result = run_bfs_crawl(svc, config);
  EXPECT_EQ(result.stats.profiles_crawled, 50u);
}

TEST(Fleet, MoreMachinesShrinkMakespan) {
  Fixture fx = mutual_community();
  CrawlConfig one;
  one.machines = 1;
  CrawlConfig eleven;
  eleven.machines = 11;
  auto svc1 = fx.service();
  const auto slow = run_bfs_crawl(svc1, one);
  auto svc2 = fx.service();
  const auto fast = run_bfs_crawl(svc2, eleven);
  EXPECT_GT(slow.makespan_days, fast.makespan_days * 4.0);
  // Work conserved: same total requests either way.
  EXPECT_EQ(slow.stats.requests, fast.stats.requests);
}

TEST(Fleet, RateLimitDominatesMakespan) {
  Fixture fx = mutual_community();
  CrawlConfig fast_rate;
  fast_rate.requests_per_second = 10.0;
  fast_rate.mean_latency_seconds = 0.0;
  CrawlConfig slow_rate = fast_rate;
  slow_rate.requests_per_second = 1.0;
  auto svc1 = fx.service();
  const auto fast = run_bfs_crawl(svc1, fast_rate);
  auto svc2 = fx.service();
  const auto slow = run_bfs_crawl(svc2, slow_rate);
  // 10x slower rate -> ~10x the makespan (exact without latency noise).
  EXPECT_NEAR(slow.makespan_days / fast.makespan_days, 10.0, 0.5);
}

TEST(Fleet, UtilizationAndAccountingAreCoherent) {
  Fixture fx = mutual_community();
  auto svc = fx.service();
  CrawlConfig config;
  config.machines = 4;
  const auto result = run_bfs_crawl(svc, config);
  EXPECT_GT(result.mean_utilization, 0.0);
  EXPECT_LE(result.mean_utilization, 1.0 + 1e-9);
  std::uint64_t machine_requests = 0;
  for (const auto& m : result.machines) {
    machine_requests += m.requests;
    EXPECT_GE(m.busy_seconds, 0.0);
  }
  EXPECT_EQ(machine_requests, result.stats.requests);
  // A fresh crawl's run time is its whole makespan.
  EXPECT_DOUBLE_EQ(result.stats.simulated_hours * 3'600.0,
                   result.makespan_days * 86'400.0);
}

TEST(Fleet, Validation) {
  Fixture fx = mutual_community();
  auto svc = fx.service();
  CrawlConfig bad_seed;
  bad_seed.seed_node = 9999;
  EXPECT_THROW(run_bfs_crawl(svc, bad_seed), std::invalid_argument);
  CrawlConfig no_machines;
  no_machines.machines = 0;
  EXPECT_THROW(run_bfs_crawl(svc, no_machines), std::invalid_argument);
  CrawlConfig bad_rate;
  bad_rate.requests_per_second = 0.0;
  EXPECT_THROW(run_bfs_crawl(svc, bad_rate), std::invalid_argument);
  CrawlConfig bad_latency;
  bad_latency.mean_latency_seconds = -1.0;
  EXPECT_THROW(run_bfs_crawl(svc, bad_latency), std::invalid_argument);
}

TEST(Bias, PartialBfsOversamplesPopularNodes) {
  // Hub-and-spoke plus a long tail of low-degree chains: an early-stopped
  // BFS from the hub's neighborhood sees the high-degree core first.
  GraphBuilder b;
  for (NodeId v = 1; v <= 50; ++v) b.add_reciprocal_edge(0, v);
  // Low-degree chain hanging off node 50.
  for (NodeId u = 50; u < 450; ++u) b.add_edge(u, u + 1);
  Fixture fx(b.build());
  auto svc = fx.service();
  CrawlConfig config;
  config.seed_node = 0;
  config.max_profiles = 20;
  const auto result = run_bfs_crawl(svc, config);
  const auto report = measure_bias(fx.graph, result);
  EXPECT_LT(report.coverage, 0.2);
  EXPECT_GT(report.degree_bias_ratio, 1.0);
  EXPECT_LE(report.edge_recall, 1.0);
}

TEST(Bias, FullCrawlIsUnbiased) {
  Fixture fx = chain_with_celebrity();
  auto svc = fx.service();
  CrawlConfig config;
  config.seed_node = 0;
  const auto result = run_bfs_crawl(svc, config);
  const auto report = measure_bias(fx.graph, result);
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  EXPECT_NEAR(report.degree_bias_ratio, 1.0, 1e-9);
  EXPECT_NEAR(report.edge_recall, 1.0, 1e-9);
}

}  // namespace
}  // namespace gplus::crawler
