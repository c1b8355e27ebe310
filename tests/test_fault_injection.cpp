// Fault-injection coverage (§2 operating reality): the seeded fault
// schedule is deterministic, retried crawls converge to the exact
// fault-free graph, and the backoff arithmetic is reproducible.
#include <gtest/gtest.h>

#include <cmath>

#include "crawler/crawler.h"
#include "crawler/retry.h"
#include "crawler/samplers.h"
#include "graph/builder.h"
#include "obs/metrics.h"
#include "service/service.h"

namespace gplus::crawler {
namespace {

using graph::GraphBuilder;
using graph::NodeId;

// A connected mutual community of 300 users plus a celebrity everyone
// follows — large enough that every fault kind fires at modest rates.
struct Fixture {
  graph::DiGraph graph;
  std::vector<synth::Profile> profiles;

  Fixture() {
    GraphBuilder b;
    for (NodeId u = 0; u < 300; ++u) {
      b.add_reciprocal_edge(u, (u + 1) % 300);
      b.add_reciprocal_edge(u, (u + 13) % 300);
      b.add_edge(u, 300);
    }
    graph = b.build();
    profiles.assign(graph.node_count(), synth::Profile{});
  }

  service::SocialService service(service::ServiceConfig config = {}) {
    return service::SocialService(&graph, profiles, config);
  }
};

service::FaultConfig modest_faults() {
  service::FaultConfig f;
  f.transient_rate = 0.10;
  f.rate_limit_rate = 0.05;
  f.truncation_rate = 0.05;
  f.slow_rate = 0.10;
  return f;
}

// Bit-identical graph comparison: same node universe in the same
// discovery order, same adjacency.
void expect_identical_crawl(const CrawlResult& a, const CrawlResult& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  EXPECT_EQ(a.original_id, b.original_id);
  EXPECT_EQ(a.crawled, b.crawled);
  ASSERT_EQ(a.graph.node_count(), b.graph.node_count());
  ASSERT_EQ(a.graph.edge_count(), b.graph.edge_count());
  for (NodeId u = 0; u < a.graph.node_count(); ++u) {
    const auto an = a.graph.out_neighbors(u);
    const auto bn = b.graph.out_neighbors(u);
    ASSERT_EQ(an.size(), bn.size()) << "node " << u;
    EXPECT_TRUE(std::equal(an.begin(), an.end(), bn.begin())) << "node " << u;
  }
}

TEST(FaultSchedule, DeterministicAcrossServiceInstances) {
  Fixture fx;
  service::ServiceConfig config;
  config.faults = modest_faults();
  auto a = fx.service(config);
  auto b = fx.service(config);
  for (NodeId id = 0; id < 50; ++id) {
    for (std::uint32_t attempt = 0; attempt < 4; ++attempt) {
      const auto pa = a.try_fetch_profile(id, attempt);
      const auto pb = b.try_fetch_profile(id, attempt);
      EXPECT_EQ(pa.status.error, pb.status.error);
      EXPECT_EQ(pa.status.retry_after_ms, pb.status.retry_after_ms);
      EXPECT_EQ(pa.status.latency_factor, pb.status.latency_factor);
      const auto la =
          a.try_fetch_list(id, service::ListKind::kInTheirCircles, 0, attempt);
      const auto lb =
          b.try_fetch_list(id, service::ListKind::kInTheirCircles, 0, attempt);
      EXPECT_EQ(la.status.error, lb.status.error);
      EXPECT_EQ(la.page.users, lb.page.users);
    }
  }
  EXPECT_EQ(a.fault_counters().total_failures(),
            b.fault_counters().total_failures());
  EXPECT_GT(a.fault_counters().total_failures(), 0u);
}

TEST(FaultSchedule, DifferentSeedsGiveDifferentSchedules) {
  Fixture fx;
  service::ServiceConfig ca, cb;
  ca.faults = modest_faults();
  cb.faults = modest_faults();
  cb.faults.seed = ca.faults.seed + 1;
  auto a = fx.service(ca);
  auto b = fx.service(cb);
  std::size_t differences = 0;
  for (NodeId id = 0; id < 100; ++id) {
    const auto pa = a.try_fetch_profile(id, 0);
    const auto pb = b.try_fetch_profile(id, 0);
    differences += pa.status.error != pb.status.error;
  }
  EXPECT_GT(differences, 0u);
}

TEST(FaultSchedule, AttemptsPastTheGuaranteeAlwaysSucceed) {
  Fixture fx;
  service::ServiceConfig config;
  config.faults = modest_faults();
  config.faults.transient_rate = 0.45;
  config.faults.rate_limit_rate = 0.30;
  config.faults.truncation_rate = 0.20;
  auto svc = fx.service(config);
  for (NodeId id = 0; id < 100; ++id) {
    const std::uint32_t attempt = config.faults.max_faults_per_request;
    EXPECT_TRUE(svc.try_fetch_profile(id, attempt).status.ok());
    EXPECT_TRUE(svc.try_fetch_list(id, service::ListKind::kHaveInCircles, 0,
                                   attempt)
                    .status.ok());
  }
}

TEST(FaultSchedule, TruncatedPageIsStrictPrefixOfCleanPage) {
  Fixture fx;
  service::ServiceConfig config;
  config.page_size = 100;
  config.faults.truncation_rate = 0.6;
  auto faulty = fx.service(config);
  service::ServiceConfig clean_config;
  clean_config.page_size = 100;
  auto clean = fx.service(clean_config);
  std::size_t truncations = 0;
  for (NodeId id = 0; id < 300; ++id) {
    const auto f =
        faulty.try_fetch_list(id, service::ListKind::kHaveInCircles, 0, 0);
    const auto c = clean.fetch_list(id, service::ListKind::kHaveInCircles, 0);
    if (f.status.error == service::FetchError::kTruncated) {
      ++truncations;
      ASSERT_LT(f.page.users.size(), c.users.size());
      EXPECT_TRUE(std::equal(f.page.users.begin(), f.page.users.end(),
                             c.users.begin()));
    } else {
      EXPECT_EQ(f.page.users, c.users);
    }
  }
  EXPECT_GT(truncations, 0u);
  EXPECT_EQ(faulty.fault_counters().truncated, truncations);
}

TEST(FaultSchedule, RateLimitCarriesRetryAfterHint) {
  Fixture fx;
  service::ServiceConfig config;
  config.faults.rate_limit_rate = 0.5;
  config.faults.retry_after_ms = 1'234;
  auto svc = fx.service(config);
  std::size_t limited = 0;
  for (NodeId id = 0; id < 200; ++id) {
    const auto p = svc.try_fetch_profile(id, 0);
    if (p.status.error == service::FetchError::kRateLimited) {
      ++limited;
      EXPECT_EQ(p.status.retry_after_ms, 1'234u);
    }
  }
  EXPECT_GT(limited, 0u);
}

TEST(FaultSchedule, LegacyFetchConvergesUnderFaults) {
  Fixture fx;
  service::ServiceConfig faulty_config;
  faulty_config.faults = modest_faults();
  auto faulty = fx.service(faulty_config);
  auto clean = fx.service();
  for (NodeId id = 0; id <= 300; ++id) {
    EXPECT_EQ(faulty.fetch_full_list(id, service::ListKind::kHaveInCircles),
              clean.fetch_full_list(id, service::ListKind::kHaveInCircles));
  }
  // The flaky wire cost more attempts for the same data.
  EXPECT_GT(faulty.request_count(), clean.request_count());
}

TEST(Backoff, DeterministicCappedAndJittered) {
  RetryPolicy policy;
  policy.base_backoff_ms = 100.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 1'000.0;
  policy.jitter = 0.5;
  const std::uint64_t key = request_key(42, 1, 0);
  service::FetchStatus transient;
  transient.error = service::FetchError::kTransient;
  for (std::uint32_t attempt = 0; attempt < 12; ++attempt) {
    const double d = backoff_delay_ms(policy, transient, key, attempt);
    // Reproducible: the delay is a pure function of (policy, key, attempt).
    EXPECT_DOUBLE_EQ(d, backoff_delay_ms(policy, transient, key, attempt));
    // Within the jitter envelope of the capped exponential.
    const double base = std::min(100.0 * std::pow(2.0, attempt), 1'000.0);
    EXPECT_LE(d, base);
    EXPECT_GE(d, base * 0.5);
  }
  // Different request keys jitter differently.
  EXPECT_NE(backoff_delay_ms(policy, transient, key, 3),
            backoff_delay_ms(policy, transient, request_key(43, 1, 0), 3));
}

TEST(Backoff, HonorsRetryAfterFloor) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10.0;
  service::FetchStatus limited;
  limited.error = service::FetchError::kRateLimited;
  limited.retry_after_ms = 5'000;
  EXPECT_GE(backoff_delay_ms(policy, limited, request_key(1, 0, 0), 0),
            5'000.0);
}

TEST(Backoff, RetryHelpersAccountEveryAttempt) {
  Fixture fx;
  service::ServiceConfig config;
  config.faults = modest_faults();
  auto svc = fx.service(config);
  RetryPolicy policy;
  obs::CounterStore counts(std::size(kRetryCounters));
  for (NodeId id = 0; id < 100; ++id) {
    const auto fetch = fetch_profile_with_retry(svc, policy, id, counts);
    EXPECT_TRUE(fetch.status.ok());
  }
  RetryStats stats;
  counts.read_fields(kRetryCounters, stats);
  EXPECT_EQ(stats.attempts, svc.request_count());
  EXPECT_EQ(stats.retries, stats.attempts - 100);
  EXPECT_EQ(stats.transient + stats.rate_limited, stats.retries);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.backoff_micros, 0u);
  EXPECT_EQ(stats.abandoned, 0u);
}

TEST(Backoff, ExhaustedRetriesAbandonTheRequest) {
  Fixture fx;
  service::ServiceConfig config;
  config.faults.transient_rate = 0.6;
  config.faults.rate_limit_rate = 0.3;
  auto svc = fx.service(config);
  RetryPolicy policy;
  policy.max_retries = 0;  // a single attempt per request
  obs::CounterStore counts(std::size(kRetryCounters));
  for (NodeId id = 0; id < 100; ++id) {
    fetch_profile_with_retry(svc, policy, id, counts);
  }
  RetryStats stats;
  counts.read_fields(kRetryCounters, stats);
  EXPECT_GT(stats.abandoned, 0u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(FaultyCrawl, ConvergesToFaultFreeGraph) {
  Fixture fx;
  CrawlConfig config;
  config.seed_node = 0;
  // One page per list, and two-entry pages that paginate every list and
  // expose each page to truncation.
  for (std::uint32_t page_size : {1'000u, 2u}) {
    service::ServiceConfig clean_config;
    clean_config.page_size = page_size;
    auto clean = fx.service(clean_config);
    const auto reference = run_bfs_crawl(clean, config);

    service::ServiceConfig faulty_config = clean_config;
    faulty_config.faults = modest_faults();
    auto faulty = fx.service(faulty_config);
    const auto crawl = run_bfs_crawl(faulty, config);

    expect_identical_crawl(reference, crawl);
    EXPECT_GT(crawl.stats.retry.retries, 0u);
    EXPECT_GT(crawl.stats.requests, reference.stats.requests);
    EXPECT_EQ(crawl.stats.retry.abandoned, 0u);
    EXPECT_EQ(crawl.stats.degraded_users, 0u);
    if (page_size == 2) {
      EXPECT_GT(crawl.stats.retry.truncated, 0u);
    }
    // Backoff + slow responses stretch the simulated wall-clock.
    EXPECT_GT(crawl.stats.simulated_hours, reference.stats.simulated_hours);
  }
}

TEST(FaultyCrawl, FaultyCrawlIsItselfDeterministic) {
  Fixture fx;
  service::ServiceConfig config;
  config.faults = modest_faults();
  CrawlConfig cconfig;
  cconfig.seed_node = 3;
  auto a = fx.service(config);
  auto b = fx.service(config);
  const auto ra = run_bfs_crawl(a, cconfig);
  const auto rb = run_bfs_crawl(b, cconfig);
  expect_identical_crawl(ra, rb);
  EXPECT_EQ(ra.stats.requests, rb.stats.requests);
  EXPECT_EQ(ra.stats.retry.retries, rb.stats.retry.retries);
  EXPECT_EQ(ra.stats.retry.backoff_micros, rb.stats.retry.backoff_micros);
  EXPECT_DOUBLE_EQ(ra.stats.simulated_hours, rb.stats.simulated_hours);
}

TEST(FaultyCrawl, ExhaustedRetryBudgetDegradesAndIsAccounted) {
  Fixture fx;
  service::ServiceConfig config;
  // Heavy enough that a two-attempt budget abandons many fetches, light
  // enough that the crawl still spreads from the seed.
  config.faults.transient_rate = 0.30;
  config.faults.rate_limit_rate = 0.10;
  config.faults.truncation_rate = 0.10;
  auto svc = fx.service(config);
  CrawlConfig cconfig;
  cconfig.seed_node = 0;
  cconfig.retry.max_retries = 1;  // far below the fault schedule's tail
  const auto crawl = run_bfs_crawl(svc, cconfig);
  EXPECT_GT(crawl.stats.retry.abandoned, 0u);
  EXPECT_GT(crawl.stats.degraded_users, 0u);

  const auto est = estimate_lost_edges(svc, crawl);
  EXPECT_GT(est.degraded_users, 0u);
  EXPECT_GT(est.fault_lost_fraction, 0.0);
  // Fault loss and cap loss never double-count a user.
  EXPECT_EQ(est.users_over_cap, 0u);

  // An uncrippled retry budget recovers everything.
  auto recovered_svc = fx.service(config);
  CrawlConfig patient = cconfig;
  patient.retry = RetryPolicy{};
  const auto recovered = run_bfs_crawl(recovered_svc, patient);
  EXPECT_EQ(recovered.stats.degraded_users, 0u);
  EXPECT_GT(recovered.graph.edge_count(), crawl.graph.edge_count());
}

TEST(FaultyFleet, ConvergesToFaultFreeGraphAndPaysInTime) {
  Fixture fx;
  auto clean = fx.service();
  CrawlConfig config;
  config.seed_node = 0;
  const auto reference = run_bfs_crawl(clean, config);

  service::ServiceConfig faulty_config;
  faulty_config.faults = modest_faults();
  auto faulty = fx.service(faulty_config);
  const auto fleet = run_bfs_crawl(faulty, config);

  expect_identical_crawl(reference, fleet);
  EXPECT_EQ(fleet.stats.profiles_crawled, reference.stats.profiles_crawled);
  EXPECT_GT(fleet.stats.requests, reference.stats.requests);
  EXPECT_GT(fleet.makespan_days, reference.makespan_days);
  EXPECT_LE(fleet.mean_utilization, 1.0 + 1e-9);
  double waiting = 0.0;
  std::uint64_t rate_limited = 0;
  for (const auto& m : fleet.machines) {
    waiting += m.waiting_seconds;
    rate_limited += m.rate_limited;
  }
  EXPECT_GT(waiting, 0.0);
  EXPECT_GT(rate_limited, 0u);
  EXPECT_EQ(rate_limited, fleet.stats.retry.rate_limited);
}

TEST(FaultySamplers, SamplersConvergeUnderFaults) {
  Fixture fx;
  auto clean = fx.service();
  service::ServiceConfig faulty_config;
  faulty_config.faults = modest_faults();
  auto faulty = fx.service(faulty_config);
  SamplerOptions options;
  options.seed_node = 0;
  options.target_users = 150;
  for (auto kind : {SamplerKind::kBfs, SamplerKind::kRandomWalk,
                    SamplerKind::kMetropolisHastings}) {
    const auto a = sample_users(clean, kind, options);
    const auto b = sample_users(faulty, kind, options);
    // The legacy fetch path retries internally: identical data, identical
    // walk, more wire traffic.
    EXPECT_EQ(a.users, b.users) << sampler_name(kind);
    EXPECT_GT(b.requests, a.requests) << sampler_name(kind);
  }
}

// --- Metrics registry mirroring -------------------------------------------

TEST(ObsRegistry, CrawlDeltaMatchesRetryStatsExactly) {
  // The registry exports the crawl's own counter cells, so the delta
  // across one crawl must agree field for field.
  Fixture fx;
  service::ServiceConfig config;
  config.faults = modest_faults();
  auto svc = fx.service(config);
  CrawlConfig cconfig;
  cconfig.seed_node = 0;

  auto& registry = obs::MetricsRegistry::global();
  const auto before = registry.snapshot();
  const auto crawl = run_bfs_crawl(svc, cconfig);
  const auto d = obs::delta(registry.snapshot(), before);

  const RetryStats& retry = crawl.stats.retry;
  EXPECT_GT(retry.retries, 0u);
  EXPECT_EQ(d.value("crawler.fetch.attempts"),
            static_cast<std::int64_t>(retry.attempts));
  EXPECT_EQ(d.value("crawler.fetch.retries"),
            static_cast<std::int64_t>(retry.retries));
  EXPECT_EQ(d.value("crawler.fetch.abandoned"),
            static_cast<std::int64_t>(retry.abandoned));
  EXPECT_EQ(d.value("crawler.fetch.slow"),
            static_cast<std::int64_t>(retry.slow));
  EXPECT_EQ(d.value("crawler.fault.transient"),
            static_cast<std::int64_t>(retry.transient));
  EXPECT_EQ(d.value("crawler.fault.rate_limited"),
            static_cast<std::int64_t>(retry.rate_limited));
  EXPECT_EQ(d.value("crawler.fault.truncated"),
            static_cast<std::int64_t>(retry.truncated));

  EXPECT_EQ(d.value("crawler.backoff.micros"),
            static_cast<std::int64_t>(retry.backoff_micros));
  // Every retried request recorded one delay sample in the histogram.
  EXPECT_EQ(d.value("crawler.backoff.delay_ms"),
            static_cast<std::int64_t>(retry.retries));
}

TEST(ObsRegistry, DegradedCrawlPublishesLostEdgeGauges) {
  Fixture fx;
  service::ServiceConfig config;
  config.faults.transient_rate = 0.30;
  config.faults.rate_limit_rate = 0.10;
  config.faults.truncation_rate = 0.10;
  auto svc = fx.service(config);
  CrawlConfig cconfig;
  cconfig.seed_node = 0;
  cconfig.retry.max_retries = 1;  // abandon into degraded expansions
  const auto crawl = run_bfs_crawl(svc, cconfig);
  ASSERT_GT(crawl.stats.degraded_users, 0u);

  auto& registry = obs::MetricsRegistry::global();
  const auto est = estimate_lost_edges(svc, crawl);
  const auto snap = registry.snapshot();

  EXPECT_EQ(snap.value("crawler.lost.degraded_users"),
            static_cast<std::int64_t>(est.degraded_users));
  EXPECT_EQ(snap.value("crawler.lost.users_over_cap"),
            static_cast<std::int64_t>(est.users_over_cap));
  EXPECT_EQ(snap.value("crawler.lost.displayed_total"),
            static_cast<std::int64_t>(est.displayed_total));
  EXPECT_EQ(snap.value("crawler.lost.collected_total"),
            static_cast<std::int64_t>(est.collected_total));
  EXPECT_EQ(snap.value("crawler.lost.fraction_ppm"),
            std::llround(est.lost_fraction * 1e6));
  EXPECT_EQ(snap.value("crawler.lost.fault_fraction_ppm"),
            std::llround(est.fault_lost_fraction * 1e6));
  EXPECT_GT(snap.value("crawler.lost.fault_fraction_ppm"), 0);
}

TEST(FaultConfig, RejectsInvalidRates) {
  Fixture fx;
  service::ServiceConfig config;
  config.faults.transient_rate = 0.7;
  config.faults.rate_limit_rate = 0.4;  // sums past 1.0
  EXPECT_THROW(fx.service(config), std::invalid_argument);
  config = {};
  config.faults.transient_rate = -0.1;
  EXPECT_THROW(fx.service(config), std::invalid_argument);
  config = {};
  config.faults.slow_factor = 0.5;
  EXPECT_THROW(fx.service(config), std::invalid_argument);
}

}  // namespace
}  // namespace gplus::crawler
