#include "crawler/fleet.h"

#include <gtest/gtest.h>

#include "graph/builder.h"

namespace gplus::crawler {
namespace {

using graph::GraphBuilder;
using graph::NodeId;

struct Fixture {
  graph::DiGraph graph;
  std::vector<synth::Profile> profiles;

  Fixture() {
    GraphBuilder b;
    // A connected mutual community of 200 users.
    for (NodeId u = 0; u < 200; ++u) {
      b.add_reciprocal_edge(u, (u + 1) % 200);
      b.add_reciprocal_edge(u, (u + 7) % 200);
    }
    graph = b.build();
    profiles.assign(graph.node_count(), synth::Profile{});
  }

  service::SocialService service() {
    return service::SocialService(&graph, profiles, {});
  }
};

TEST(Fleet, CrawlsEverythingReachable) {
  Fixture fx;
  auto svc = fx.service();
  FleetConfig config;
  const auto result = run_crawl_fleet(svc, config);
  EXPECT_EQ(result.crawl.stats.profiles_crawled, fx.graph.node_count());
  EXPECT_EQ(result.crawl.stats.requests, svc.request_count());
  EXPECT_GT(result.makespan_days, 0.0);
  EXPECT_EQ(result.machines.size(), 11u);
}

TEST(Fleet, BudgetStopsEarly) {
  Fixture fx;
  auto svc = fx.service();
  FleetConfig config;
  config.max_profiles = 50;
  const auto result = run_crawl_fleet(svc, config);
  EXPECT_EQ(result.crawl.stats.profiles_crawled, 50u);
}

TEST(Fleet, MoreMachinesShrinkMakespan) {
  Fixture fx;
  FleetConfig one;
  one.machines = 1;
  FleetConfig eleven;
  eleven.machines = 11;
  auto svc1 = fx.service();
  const auto slow = run_crawl_fleet(svc1, one);
  auto svc2 = fx.service();
  const auto fast = run_crawl_fleet(svc2, eleven);
  EXPECT_GT(slow.makespan_days, fast.makespan_days * 4.0);
  // Work conserved: same total requests either way.
  EXPECT_EQ(slow.crawl.stats.requests, fast.crawl.stats.requests);
}

TEST(Fleet, RateLimitDominatesMakespan) {
  Fixture fx;
  FleetConfig fast_rate;
  fast_rate.requests_per_second = 10.0;
  fast_rate.mean_latency_seconds = 0.0;
  FleetConfig slow_rate = fast_rate;
  slow_rate.requests_per_second = 1.0;
  auto svc1 = fx.service();
  const auto fast = run_crawl_fleet(svc1, fast_rate);
  auto svc2 = fx.service();
  const auto slow = run_crawl_fleet(svc2, slow_rate);
  // 10x slower rate -> ~10x the makespan (exact without latency noise).
  EXPECT_NEAR(slow.makespan_days / fast.makespan_days, 10.0, 0.5);
}

TEST(Fleet, UtilizationAndAccountingAreCoherent) {
  Fixture fx;
  auto svc = fx.service();
  FleetConfig config;
  config.machines = 4;
  const auto result = run_crawl_fleet(svc, config);
  EXPECT_GT(result.mean_utilization, 0.0);
  EXPECT_LE(result.mean_utilization, 1.0 + 1e-9);
  std::uint64_t machine_requests = 0;
  for (const auto& m : result.machines) {
    machine_requests += m.requests;
    EXPECT_GE(m.busy_seconds, 0.0);
  }
  EXPECT_EQ(machine_requests, result.crawl.stats.requests);
  // A fresh fleet's run time is its whole makespan.
  EXPECT_DOUBLE_EQ(result.crawl.stats.simulated_hours * 3'600.0,
                   result.makespan_days * 86'400.0);
}

TEST(Fleet, Validation) {
  Fixture fx;
  auto svc = fx.service();
  FleetConfig bad_seed;
  bad_seed.seed_node = 9999;
  EXPECT_THROW(run_crawl_fleet(svc, bad_seed), std::invalid_argument);
  FleetConfig no_machines;
  no_machines.machines = 0;
  EXPECT_THROW(run_crawl_fleet(svc, no_machines), std::invalid_argument);
  FleetConfig bad_rate;
  bad_rate.requests_per_second = 0.0;
  EXPECT_THROW(run_crawl_fleet(svc, bad_rate), std::invalid_argument);
}

}  // namespace
}  // namespace gplus::crawler
