// Query-engine, LRU-cache and server tests: request semantics checked
// against direct DiGraph/Dataset answers, pagination against the circle
// cap, bounded shortest paths against reference BFS, the bounded queue's
// explicit overload rejection, and the counter store behind ServerStats
// (per-instance counts, summed and monotonic registry names).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>

#include "algo/bfs.h"
#include "algo/topk.h"
#include "core/dataset.h"
#include "graph/digraph.h"
#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/server.h"
#include "serve/workload.h"

namespace gplus::serve {
namespace {

std::uint32_t get_u32(const std::vector<std::uint8_t>& p, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[at + i]} << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& p, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[at + i]} << (8 * i);
  return v;
}

class ServeEngineTest : public ::testing::Test {
 protected:
  static const core::Dataset& dataset() {
    static const core::Dataset instance = core::make_standard_dataset(2000, 7);
    return instance;
  }
  static const SnapshotBuffer& snapshot() {
    static const SnapshotBuffer instance = build_snapshot(dataset());
    return instance;
  }
  static const SnapshotView& view() {
    static const SnapshotView instance{snapshot().bytes()};
    return instance;
  }
  static const RequestEngine& engine() {
    static const RequestEngine instance{&view()};
    return instance;
  }
};

TEST_F(ServeEngineTest, ProfileMatchesDataset) {
  Response r;
  for (graph::NodeId u : {0U, 17U, 1999U}) {
    engine().execute({RequestType::kGetProfile, u}, r);
    ASSERT_EQ(r.status, ServeStatus::kOk);
    ASSERT_EQ(r.payload.size(), 32u);
    EXPECT_EQ(get_u32(r.payload, 0), u);
    EXPECT_EQ(get_u32(r.payload, 4), dataset().profiles[u].shared.bits());
    EXPECT_EQ(r.payload[8], static_cast<std::uint8_t>(dataset().profiles[u].gender));
    EXPECT_EQ(get_u64(r.payload, 16), dataset().graph().in_degree(u));
    EXPECT_EQ(get_u64(r.payload, 24), dataset().graph().out_degree(u));
  }
}

TEST_F(ServeEngineTest, DegreeAndReciprocityMatchGraph) {
  Response r;
  const auto& g = dataset().graph();
  for (graph::NodeId u = 0; u < 200; ++u) {
    engine().execute({RequestType::kDegree, u}, r);
    ASSERT_EQ(r.status, ServeStatus::kOk);
    EXPECT_EQ(get_u64(r.payload, 0), g.in_degree(u));
    EXPECT_EQ(get_u64(r.payload, 8), g.out_degree(u));

    engine().execute({RequestType::kReciprocity, u}, r);
    ASSERT_EQ(r.status, ServeStatus::kOk);
    std::uint64_t reciprocal = 0;
    for (const graph::NodeId v : g.out_neighbors(u)) {
      if (g.has_edge(v, u)) ++reciprocal;
    }
    EXPECT_EQ(get_u64(r.payload, 0), g.out_degree(u));
    EXPECT_EQ(get_u64(r.payload, 8), reciprocal);
  }
}

TEST_F(ServeEngineTest, CirclePagesConcatenateToAdjacency) {
  const auto& g = dataset().graph();
  // Pick the highest-out-degree node so pagination is exercised.
  graph::NodeId u = 0;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    if (g.out_degree(v) > g.out_degree(u)) u = v;
  }
  Response r;
  std::vector<graph::NodeId> collected;
  std::uint32_t offset = 0;
  while (true) {
    Request q{RequestType::kGetOutCircle, u};
    q.offset = offset;
    q.limit = 7;
    engine().execute(q, r);
    ASSERT_EQ(r.status, ServeStatus::kOk);
    EXPECT_EQ(get_u64(r.payload, 0), g.out_degree(u));
    const std::uint32_t count = get_u32(r.payload, 8);
    for (std::uint32_t i = 0; i < count; ++i) {
      collected.push_back(get_u32(r.payload, 16 + 4 * i));
    }
    offset += count;
    if (r.payload[12] == 0) break;  // has_more
    ASSERT_LT(offset, 100'000u);
  }
  const auto want = g.out_neighbors(u);
  ASSERT_EQ(collected.size(), want.size());
  EXPECT_TRUE(std::equal(want.begin(), want.end(), collected.begin()));
}

TEST_F(ServeEngineTest, CircleCapMirrorsServiceLimit) {
  EngineConfig config;
  config.circle_cap = 5;
  config.max_page = 3;
  const RequestEngine capped(&view(), config);
  const auto& g = dataset().graph();
  graph::NodeId u = 0;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    if (g.in_degree(v) > g.in_degree(u)) u = v;
  }
  ASSERT_GT(g.in_degree(u), 5u);

  Response r;
  Request q{RequestType::kGetInCircle, u};
  q.limit = 3;
  capped.execute(q, r);
  ASSERT_EQ(r.status, ServeStatus::kOk);
  EXPECT_EQ(get_u64(r.payload, 0), g.in_degree(u));  // displayed total uncapped
  EXPECT_EQ(get_u32(r.payload, 8), 3u);
  EXPECT_EQ(r.payload[12], 1);  // has_more below the cap
  EXPECT_EQ(r.payload[13], 1);  // capped

  q.offset = 3;
  capped.execute(q, r);
  EXPECT_EQ(get_u32(r.payload, 8), 2u);  // only 5 visible
  EXPECT_EQ(r.payload[12], 0);

  q.offset = 5;  // past the visible window: empty page, still capped
  capped.execute(q, r);
  EXPECT_EQ(get_u32(r.payload, 8), 0u);
  EXPECT_EQ(r.payload[13], 1);

  q.offset = 0;
  q.limit = 4;  // over max_page
  capped.execute(q, r);
  EXPECT_EQ(r.status, ServeStatus::kInvalidRequest);
}

TEST_F(ServeEngineTest, ShortestPathMatchesReferenceBfs) {
  const auto& g = dataset().graph();
  const auto distances = algo::bfs_distances(g, 0);
  Response r;
  std::size_t checked = 0;
  for (graph::NodeId v = 0; v < g.node_count() && checked < 200; v += 13) {
    engine().execute({RequestType::kShortestPath, 0, v}, r);
    ASSERT_EQ(r.status, ServeStatus::kOk);
    const std::uint32_t got = get_u32(r.payload, 0);
    const std::uint32_t want = distances[v];
    if (want == algo::kUnreachable ||
        want > engine().config().path_max_hops) {
      EXPECT_EQ(got, kPathUnreachable) << v;
    } else {
      EXPECT_EQ(got, want) << v;
    }
    ++checked;
  }
}

TEST_F(ServeEngineTest, ShortestPathHonorsBounds) {
  EngineConfig config;
  config.path_max_hops = 1;
  const RequestEngine bounded(&view(), config);
  const auto& g = dataset().graph();
  graph::NodeId u = 0;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    if (g.out_degree(v) > 0) { u = v; break; }
  }
  const graph::NodeId direct = g.out_neighbors(u)[0];
  Response r;
  bounded.execute({RequestType::kShortestPath, u, direct}, r);
  EXPECT_EQ(get_u32(r.payload, 0), 1u);
  bounded.execute({RequestType::kShortestPath, u, u}, r);
  EXPECT_EQ(get_u32(r.payload, 0), 0u);

  EngineConfig tiny;
  tiny.path_node_budget = 3;
  const RequestEngine starved(&view(), tiny);
  std::uint64_t unreachable = 0;
  for (graph::NodeId v = 100; v < 140; ++v) {
    starved.execute({RequestType::kShortestPath, u, v}, r);
    EXPECT_LE(get_u64(r.payload, 4), 4u);  // budget + the two roots
    if (get_u32(r.payload, 0) == kPathUnreachable) ++unreachable;
  }
  EXPECT_GT(unreachable, 0u);  // a 3-node budget cannot reach far targets
}

TEST_F(ServeEngineTest, TopKMatchesReferenceRanking) {
  Response r;
  Request q{RequestType::kTopK};
  q.limit = 10;
  engine().execute(q, r);
  ASSERT_EQ(r.status, ServeStatus::kOk);
  const auto want = algo::top_by_in_degree(dataset().graph(), 10);
  ASSERT_EQ(get_u32(r.payload, 0), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(get_u32(r.payload, 4 + 12 * i), want[i].node) << i;
    EXPECT_EQ(get_u64(r.payload, 8 + 12 * i), want[i].score) << i;
  }
  q.limit = engine().config().topk_cap + 1;
  engine().execute(q, r);
  EXPECT_EQ(r.status, ServeStatus::kInvalidRequest);
}

TEST_F(ServeEngineTest, InvalidNodesAreExplicitErrors) {
  Response r;
  const auto n = static_cast<graph::NodeId>(view().node_count());
  for (const RequestType type :
       {RequestType::kGetProfile, RequestType::kGetOutCircle,
        RequestType::kGetInCircle, RequestType::kReciprocity,
        RequestType::kDegree}) {
    engine().execute({type, n}, r);
    EXPECT_EQ(r.status, ServeStatus::kInvalidNode);
    EXPECT_TRUE(r.payload.empty());
  }
  engine().execute({RequestType::kShortestPath, 0, n}, r);
  EXPECT_EQ(r.status, ServeStatus::kInvalidNode);
}

TEST(ShardedLruCacheTest, HitMissEvictionCounters) {
  ShardedLruCache cache(4, 1);
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(cache.lookup(1, out));
  cache.insert(1, {1});
  cache.insert(2, {2});
  cache.insert(3, {3});
  cache.insert(4, {4});
  EXPECT_TRUE(cache.lookup(1, out));
  EXPECT_EQ(out, std::vector<std::uint8_t>{1});
  // 1 is now most-recent; inserting 5 evicts 2 (least recent).
  cache.insert(5, {5});
  EXPECT_FALSE(cache.lookup(2, out));
  EXPECT_TRUE(cache.lookup(1, out));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 4u);

  cache.clear();
  // clear() resets entries AND statistics: a cleared cache is
  // indistinguishable from a fresh one (the hot-swap comparability rule).
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().stale_hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ShardedLruCacheTest, StaleHitsCountedSeparately) {
  ShardedLruCache cache(8, 1);
  std::vector<std::uint8_t> out;
  cache.insert(7, {42});
  EXPECT_TRUE(cache.lookup(7, out));                  // fresh hit
  EXPECT_TRUE(cache.lookup(7, out, /*stale=*/true));  // degraded-mode hit
  EXPECT_FALSE(cache.lookup(8, out, /*stale=*/true)); // miss is a miss
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.stale_hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  // Both hit flavors count toward the hit rate.
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 2.0 / 3.0);
}

TEST(ShardedLruCacheTest, ZeroCapacityDisables) {
  ShardedLruCache cache(0, 8);
  std::vector<std::uint8_t> out;
  cache.insert(1, {1});
  EXPECT_FALSE(cache.lookup(1, out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ShardedLruCacheTest, ShardsPartitionKeys) {
  ShardedLruCache cache(64, 4);
  EXPECT_EQ(cache.shard_count(), 4u);
  std::vector<std::uint8_t> out;
  for (std::uint64_t k = 0; k < 64; ++k) {
    cache.insert(k << 48, {static_cast<std::uint8_t>(k)});  // spread shards
  }
  EXPECT_LE(cache.stats().entries, 64u);
  EXPECT_GT(cache.stats().entries, 0u);
}

class QueryServerTest : public ServeEngineTest {};

TEST_F(QueryServerTest, BoundedQueueRejectsExplicitly) {
  ServerConfig config;
  config.queue_capacity = 4;
  QueryServer server(&view(), config);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(server.submit({RequestType::kDegree, 0}), ServeStatus::kOk);
  }
  EXPECT_EQ(server.pending(), 4u);
  // Past capacity: rejected, counted, nothing queued or dropped silently.
  EXPECT_EQ(server.submit({RequestType::kDegree, 1}), ServeStatus::kRejected);
  EXPECT_EQ(server.submit({RequestType::kDegree, 2}), ServeStatus::kRejected);
  EXPECT_EQ(server.pending(), 4u);

  std::vector<Response> responses;
  server.drain(responses);
  EXPECT_EQ(responses.size(), 4u);
  EXPECT_EQ(server.pending(), 0u);
  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.served, 4u);
  // Queue freed: the next submit is admitted again.
  EXPECT_EQ(server.submit({RequestType::kDegree, 1}), ServeStatus::kOk);
}

TEST_F(QueryServerTest, DrainAnswersInSubmissionOrder) {
  QueryServer server(&view());
  const auto& g = dataset().graph();
  for (graph::NodeId u = 0; u < 50; ++u) {
    ASSERT_EQ(server.submit({RequestType::kDegree, u}), ServeStatus::kOk);
  }
  std::vector<Response> responses;
  std::vector<std::uint64_t> latency;
  server.drain(responses, &latency);
  ASSERT_EQ(responses.size(), 50u);
  ASSERT_EQ(latency.size(), 50u);
  for (graph::NodeId u = 0; u < 50; ++u) {
    EXPECT_EQ(get_u64(responses[u].payload, 0), g.in_degree(u)) << u;
  }
}

TEST_F(QueryServerTest, CacheServesRepeatedProfiles) {
  QueryServer server(&view());
  std::vector<Response> responses;
  for (int round = 0; round < 3; ++round) {
    for (graph::NodeId u = 0; u < 10; ++u) {
      ASSERT_EQ(server.submit({RequestType::kGetProfile, u}), ServeStatus::kOk);
    }
    server.drain(responses);
  }
  const ServerStats stats = server.stats_snapshot();
  EXPECT_EQ(stats.cache.misses, 10u);  // first round only
  EXPECT_EQ(stats.cache.hits, 20u);    // rounds 2 and 3
  EXPECT_EQ(stats.per_type[static_cast<std::size_t>(RequestType::kGetProfile)],
            30u);
  // Hits and misses must carry identical payloads.
  QueryServer cold(&view());
  ASSERT_EQ(cold.submit({RequestType::kGetProfile, 3}), ServeStatus::kOk);
  std::vector<Response> fresh;
  cold.drain(fresh);
  ASSERT_EQ(server.submit({RequestType::kGetProfile, 3}), ServeStatus::kOk);
  server.drain(responses);
  EXPECT_EQ(responses[0].payload, fresh[0].payload);
}

TEST_F(QueryServerTest, ErrorsAreNotCached) {
  QueryServer server(&view());
  const auto n = static_cast<graph::NodeId>(view().node_count());
  std::vector<Response> responses;
  for (int round = 0; round < 2; ++round) {
    ASSERT_EQ(server.submit({RequestType::kGetProfile, n}), ServeStatus::kOk);
    server.drain(responses);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, ServeStatus::kInvalidNode);
  }
  EXPECT_EQ(server.stats_snapshot().cache.hits, 0u);
  EXPECT_EQ(server.stats_snapshot().cache.entries, 0u);
}

// --- One counter store: per-instance stats, summed registry names --------

std::int64_t registry_value(const std::string& name) {
  return obs::MetricsRegistry::global().snapshot().value(name);
}

void serve_profiles(QueryServer& server, graph::NodeId count) {
  std::vector<Response> responses;
  for (graph::NodeId u = 0; u < count; ++u) {
    ASSERT_EQ(server.submit({RequestType::kGetProfile, u}), ServeStatus::kOk);
  }
  server.drain(responses);
}

TEST_F(QueryServerTest, DefaultScopeServersReportOwnCountsRegistrySums) {
  const std::int64_t accepted0 = registry_value("serve.accepted");
  const std::int64_t misses0 = registry_value("serve.cache.misses");
  QueryServer a(&view());
  QueryServer b(&view());
  serve_profiles(a, 7);
  serve_profiles(b, 5);
  serve_profiles(b, 5);  // all cache hits

  const ServerStats sa = a.stats_snapshot();
  const ServerStats sb = b.stats_snapshot();
  EXPECT_EQ(sa.accepted, 7u);
  EXPECT_EQ(sb.accepted, 10u);
  EXPECT_EQ(sa.cache.misses, 7u);
  EXPECT_EQ(sb.cache.misses, 5u);
  EXPECT_EQ(sb.cache.hits, 5u);
  EXPECT_EQ(registry_value("serve.accepted") - accepted0, 17);
  EXPECT_EQ(registry_value("serve.cache.misses") - misses0, 12);
}

TEST_F(QueryServerTest, RegistryTotalOutlivesTheServer) {
  const std::int64_t before = registry_value("serve.served");
  {
    QueryServer server(&view());
    serve_profiles(server, 9);
    EXPECT_EQ(registry_value("serve.served") - before, 9);
  }
  EXPECT_EQ(registry_value("serve.served") - before, 9);
}

TEST_F(QueryServerTest, CacheClearZeroesInstanceNotRegistry) {
  QueryServer server(&view());
  serve_profiles(server, 6);
  serve_profiles(server, 6);
  const std::int64_t hits = registry_value("serve.cache.hits");
  const std::int64_t misses = registry_value("serve.cache.misses");
  ASSERT_EQ(server.stats_snapshot().cache.hits, 6u);

  server.cache().clear();
  const CacheStats cleared = server.stats_snapshot().cache;
  EXPECT_EQ(cleared.hits, 0u);
  EXPECT_EQ(cleared.misses, 0u);
  EXPECT_EQ(cleared.entries, 0u);
  EXPECT_EQ(registry_value("serve.cache.hits"), hits);
  EXPECT_EQ(registry_value("serve.cache.misses"), misses);
  // Counting resumes from zero on the instance, on top of the totals.
  serve_profiles(server, 1);
  EXPECT_EQ(server.stats_snapshot().cache.misses, 1u);
  EXPECT_EQ(registry_value("serve.cache.misses"), misses + 1);
}

TEST_F(QueryServerTest, RegistrySnapshotDuringParallelDrainIsRaceFree) {
  // A reader thread snapshots the registry while the coordinator drains
  // on the pool; the TSan build runs this case.
  ServerConfig config;
  config.cache_capacity = 0;
  config.metrics_scope = "tsan";
  QueryServer server(&view(), config);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::int64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::int64_t now =
          obs::MetricsRegistry::global().snapshot().value("serve.tsan.served");
      EXPECT_GE(now, last);
      last = now;
    }
  });
  std::vector<Response> responses;
  for (int round = 0; round < 4; ++round) {
    for (graph::NodeId u = 0; u < 512; ++u) {
      server.submit({RequestType::kShortestPath, u, (u * 7) % 2000});
    }
    server.drain(responses);
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(server.stats_snapshot().served, 4u * 512u);
}

TEST(ServeNames, StatusAndTypeNamesAreStable) {
  EXPECT_EQ(request_type_name(RequestType::kGetProfile), "get-profile");
  EXPECT_EQ(request_type_name(RequestType::kShortestPath), "shortest-path");
  EXPECT_EQ(serve_status_name(ServeStatus::kOk), "ok");
  EXPECT_EQ(serve_status_name(ServeStatus::kRejected), "rejected");
  EXPECT_EQ(WorkloadMix::by_name("path").weights
                [static_cast<std::size_t>(RequestType::kShortestPath)],
            0.50);
  EXPECT_THROW(WorkloadMix::by_name("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace gplus::serve
