// Sharded serving cluster: splitter invariants, routing-table IO,
// deterministic failover, dark-shard degradation, router backpressure,
// per-replica metric-scope isolation and the scripted kill/recover storm
// (DESIGN.md §13). Answer equivalence against the unsharded engine lives
// in test_cluster_equivalence.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <vector>

#include "core/dataset.h"
#include "obs/metrics.h"
#include "serve/cluster.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"
#include "storm/storm.h"

namespace gplus::serve {
namespace {

constexpr std::size_t kNodes = 3000;

const core::Dataset& dataset() {
  static const core::Dataset instance = core::make_standard_dataset(kNodes, 17);
  return instance;
}

const SnapshotView& full_view() {
  static const SnapshotBuffer snapshot = build_snapshot(dataset());
  static const SnapshotView instance{snapshot.bytes()};
  return instance;
}

const ShardedSnapshot& sharded4() {
  static const ShardedSnapshot instance = [] {
    ShardingOptions opts;
    opts.shard_count = 4;
    return split_snapshot(full_view(), opts);
  }();
  return instance;
}

std::vector<const SnapshotView*> open_shards(
    const ShardedSnapshot& sharded, std::vector<SnapshotView>& storage) {
  storage.clear();
  storage.reserve(sharded.shards.size());
  for (const auto& shard : sharded.shards) storage.emplace_back(shard.bytes());
  std::vector<const SnapshotView*> ptrs;
  for (const auto& view : storage) ptrs.push_back(&view);
  return ptrs;
}

TEST(ShardSplit, StripeOwnershipIsBalancedAndComplete) {
  const auto& sharded = sharded4();
  ASSERT_EQ(sharded.routing.shard_count, 4u);
  ASSERT_EQ(sharded.routing.node_count(), kNodes);
  EXPECT_EQ(sharding_policy_name(sharded.routing.policy), "rank-stripe");
  std::vector<std::size_t> owned(4, 0);
  for (graph::NodeId u = 0; u < kNodes; ++u) {
    const std::size_t s = sharded.routing.owner_shard(u);
    ASSERT_LT(s, 4u) << u;
    ++owned[s];
  }
  // Round-robin over ranks: shard populations differ by at most one.
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_NEAR(static_cast<double>(owned[s]), kNodes / 4.0, 1.0) << s;
  }
}

TEST(ShardSplit, RangePolicySplitsAndCoversEveryNode) {
  ShardingOptions opts;
  opts.shard_count = 3;
  opts.policy = ShardingPolicy::kRankRange;
  const auto sharded = split_snapshot(full_view(), opts);
  EXPECT_EQ(sharding_policy_name(sharded.routing.policy), "rank-range");
  std::vector<std::size_t> owned(3, 0);
  for (graph::NodeId u = 0; u < kNodes; ++u) {
    ++owned[sharded.routing.owner_shard(u)];
  }
  for (std::size_t s = 0; s < 3; ++s) EXPECT_GT(owned[s], 0u) << s;
}

TEST(ShardSplit, RejectsDegenerateShardCounts) {
  EXPECT_THROW(split_snapshot(full_view(), {.shard_count = 0}),
               std::runtime_error);
  EXPECT_THROW(split_snapshot(full_view(), {.shard_count = 257}),
               std::runtime_error);
  EXPECT_THROW(split_snapshot(full_view(), {.shard_count = kNodes + 1}),
               std::runtime_error);
}

TEST(ShardSplit, OwnedRowsBitEqualTheUnsharded) {
  const auto& full = full_view();
  const auto& sharded = sharded4();
  std::uint64_t edge_sum = 0;
  for (std::size_t s = 0; s < sharded.shards.size(); ++s) {
    const SnapshotView shard(sharded.shards[s].bytes());
    EXPECT_NO_THROW(shard.verify_sections()) << s;
    ASSERT_EQ(shard.node_count(), full.node_count()) << s;
    edge_sum += shard.edge_count();
    for (graph::NodeId u = 0; u < kNodes; ++u) {
      if (sharded.routing.owner_shard(u) != s) continue;
      ASSERT_EQ(shard.out_degree(u), full.out_degree(u)) << "shard " << s;
      ASSERT_EQ(shard.in_degree(u), full.in_degree(u)) << "shard " << s;
      ASSERT_EQ(shard.reciprocal_out_degree(u), full.reciprocal_out_degree(u))
          << "shard " << s;
      const auto& a = shard.profile(u);
      const auto& b = full.profile(u);
      ASSERT_EQ(0, std::memcmp(&a, &b, sizeof(a))) << "shard " << s;
    }
  }
  // Every edge lands in its endpoints' owner shards: stored once when both
  // endpoints share a shard, twice otherwise.
  EXPECT_GE(edge_sum, full.edge_count());
  EXPECT_LE(edge_sum, 2 * full.edge_count());
}

TEST(RoutingTableIO, RoundtripsAndDetectsCorruption) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "gplus_test_cluster.routing";
  const auto& table = sharded4().routing;
  save_routing_table(table, path);
  const RoutingTable loaded = load_routing_table(path);
  EXPECT_EQ(loaded.shard_count, table.shard_count);
  EXPECT_EQ(loaded.policy, table.policy);
  EXPECT_EQ(loaded.owner, table.owner);

  // Flip one owner byte: the trailing checksum must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(32);
    char byte = 0;
    f.seekg(32);
    f.read(&byte, 1);
    byte ^= 0x5A;
    f.seekp(32);
    f.write(&byte, 1);
  }
  EXPECT_THROW(load_routing_table(path), std::runtime_error);
  fs::remove(path);
  EXPECT_THROW(load_routing_table(path), std::runtime_error);
}

// Exhaustive corruption sweep: flip one bit at EVERY byte offset of a
// saved GPROUTE1 table and assert each load fails closed. Detection is
// structural, not probabilistic: magic flips fail the magic check,
// node-count flips fail the size check, and every other flip perturbs
// the trailing FNV-1a (each fold step is a bijection of the running
// hash, so a changed byte can never cancel out).
TEST(RoutingTableIO, EveryByteBitFlipFailsClosed) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "gplus_test_cluster_sweep.routing";
  save_routing_table(sharded4().routing, path);

  std::vector<char> pristine;
  {
    std::ifstream in(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_GT(pristine.size(), 32u);

  for (std::size_t offset = 0; offset < pristine.size(); ++offset) {
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      char byte = static_cast<char>(pristine[offset] ^ 0x01);
      f.seekp(static_cast<std::streamoff>(offset));
      f.write(&byte, 1);
    }
    EXPECT_THROW(load_routing_table(path), std::runtime_error)
        << "bit flip at offset " << offset << " loaded successfully";
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&pristine[offset], 1);
  }

  // The restored file must load again — the sweep corrupted, not the test.
  EXPECT_NO_THROW(load_routing_table(path));
  fs::remove(path);
}

TEST(ClusterServer, FailoverPicksLowestLiveReplica) {
  std::vector<SnapshotView> storage;
  const auto ptrs = open_shards(sharded4(), storage);
  ClusterConfig config;
  config.replicas = 3;
  ClusterServer cluster(&sharded4().routing, ptrs, config);
  ASSERT_EQ(cluster.shard_count(), 4u);
  ASSERT_EQ(cluster.replicas_per_shard(), 3u);

  Request q;
  q.type = RequestType::kDegree;
  q.user = 7;
  const std::size_t shard = sharded4().routing.owner_shard(q.user);

  auto served_by = [&](std::size_t replica) {
    const auto before = cluster.replica_stats(shard, replica).served;
    EXPECT_EQ(cluster.submit(q), ServeStatus::kOk);
    std::vector<Response> responses;
    cluster.drain(responses);
    EXPECT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, ServeStatus::kOk);
    return cluster.replica_stats(shard, replica).served == before + 1;
  };

  EXPECT_TRUE(served_by(0));
  cluster.kill_replica(shard, 0);
  EXPECT_FALSE(cluster.replica_up(shard, 0));
  EXPECT_FALSE(cluster.shard_dark(shard));
  EXPECT_TRUE(served_by(1));
  cluster.kill_replica(shard, 1);
  EXPECT_TRUE(served_by(2));
  cluster.recover_replica(shard, 0);
  EXPECT_TRUE(served_by(0));
}

TEST(ClusterServer, KillWithPendingRequestsIsRefused) {
  std::vector<SnapshotView> storage;
  const auto ptrs = open_shards(sharded4(), storage);
  ClusterServer cluster(&sharded4().routing, ptrs);
  Request q;
  q.type = RequestType::kDegree;
  q.user = 1;
  ASSERT_EQ(cluster.submit(q), ServeStatus::kOk);
  EXPECT_EQ(cluster.queued(), 1u);
  EXPECT_THROW(cluster.kill_replica(0, 0), std::logic_error);
  std::vector<Response> responses;
  cluster.drain(responses);
  EXPECT_NO_THROW(cluster.kill_replica(0, 0));
  cluster.recover_replica(0, 0);
}

TEST(ClusterServer, RejectsAnOwnerOutsideTheShards) {
  std::vector<SnapshotView> storage;
  const auto ptrs = open_shards(sharded4(), storage);
  RoutingTable routing = sharded4().routing;
  routing.owner[kNodes / 2] = 4;  // only shards 0..3 exist
  EXPECT_THROW(ClusterServer(&routing, ptrs), std::invalid_argument);
}

TEST(ClusterServer, DarkShardDegradesExplicitly) {
  std::vector<SnapshotView> storage;
  const auto ptrs = open_shards(sharded4(), storage);
  ClusterServer cluster(&sharded4().routing, ptrs);  // replicas = 1
  const std::size_t dark = 2;
  cluster.kill_replica(dark, 0);
  ASSERT_TRUE(cluster.shard_dark(dark));

  graph::NodeId owned_by_dark = 0;
  while (sharded4().routing.owner_shard(owned_by_dark) != dark) {
    ++owned_by_dark;
  }

  // Single-shard family on the dark shard: terminal kUnavailable, flagged.
  Request profile;
  profile.type = RequestType::kGetProfile;
  profile.user = owned_by_dark;
  ASSERT_EQ(cluster.submit(profile), ServeStatus::kOk);

  // TopK degrades to a best-effort merge over the live shards.
  Request topk;
  topk.type = RequestType::kTopK;
  topk.limit = 10;
  ASSERT_EQ(cluster.submit(topk), ServeStatus::kOk);

  std::vector<Response> responses;
  cluster.drain(responses);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, ServeStatus::kUnavailable);
  EXPECT_NE(responses[0].flags & kResponseShardDark, 0);
  EXPECT_EQ(responses[1].status, ServeStatus::kOk);
  EXPECT_NE(responses[1].flags & kResponseShardDark, 0);
  EXPECT_FALSE(responses[1].payload.empty());
  EXPECT_GE(cluster.stats_snapshot().dark_answers, 2u);

  // Recovery restores the unsharded answers (no dark flag).
  cluster.recover_replica(dark, 0);
  ASSERT_EQ(cluster.submit(profile), ServeStatus::kOk);
  ASSERT_EQ(cluster.submit(topk), ServeStatus::kOk);
  cluster.drain(responses);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, ServeStatus::kOk);
  EXPECT_EQ(responses[0].flags & kResponseShardDark, 0);
  EXPECT_EQ(responses[1].status, ServeStatus::kOk);
  EXPECT_EQ(responses[1].flags & kResponseShardDark, 0);
}

TEST(ClusterServer, RouterQueueBoundsScatterAdmission) {
  std::vector<SnapshotView> storage;
  const auto ptrs = open_shards(sharded4(), storage);
  ClusterConfig config;
  config.router_queue_capacity = 8;
  ClusterServer cluster(&sharded4().routing, ptrs, config);
  Request topk;
  topk.type = RequestType::kTopK;
  topk.limit = 5;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (int i = 0; i < 32; ++i) {
    (cluster.submit(topk) == ServeStatus::kOk) ? ++accepted : ++rejected;
  }
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(rejected, 24u);
  std::vector<Response> responses;
  cluster.drain(responses);
  EXPECT_EQ(responses.size(), 8u);
  const auto stats = cluster.stats_snapshot();
  EXPECT_EQ(stats.accepted, 8u);
  EXPECT_EQ(stats.rejected, 24u);
  EXPECT_EQ(stats.served, 8u);
}

TEST(ClusterServer, AggregateStatsReconcileAcrossReplicas) {
  std::vector<SnapshotView> storage;
  const auto ptrs = open_shards(sharded4(), storage);
  ClusterConfig config;
  config.replicas = 2;
  ClusterServer cluster(&sharded4().routing, ptrs, config);
  std::uint64_t offered = 0;
  for (std::uint32_t i = 0; i < 400; ++i) {
    Request q;
    q.type = static_cast<RequestType>(i % kRequestTypeCount);
    q.user = (i * 31) % kNodes;
    q.target = (i * 7 + 3) % kNodes;
    q.limit = q.type == RequestType::kTopK ? 10 : 0;
    ASSERT_EQ(cluster.submit(q), ServeStatus::kOk);
    ++offered;
  }
  std::vector<Response> responses;
  cluster.drain(responses);
  ASSERT_EQ(responses.size(), offered);

  const auto stats = cluster.stats_snapshot();
  EXPECT_EQ(stats.accepted, offered);
  EXPECT_EQ(stats.served, offered);
  const std::uint64_t status_sum = std::accumulate(
      stats.by_status.begin(), stats.by_status.end(), std::uint64_t{0});
  EXPECT_EQ(status_sum, offered);

  // Replica-level `served` covers exactly the single-shard traffic; the
  // aggregate view folds in router-terminal and scatter responses.
  std::uint64_t replica_served = 0;
  for (std::size_t s = 0; s < cluster.shard_count(); ++s) {
    for (std::size_t r = 0; r < cluster.replicas_per_shard(); ++r) {
      replica_served += cluster.replica_stats(s, r).served;
    }
  }
  EXPECT_LT(replica_served, offered);      // scatter families bypass replicas
  EXPECT_GT(stats.scatter, 0u);
  EXPECT_GT(stats.messages, 0u);
  const auto aggregate = cluster.aggregate_server_stats();
  EXPECT_EQ(aggregate.accepted, offered);
  EXPECT_EQ(aggregate.served, offered);
}

TEST(ClusterMetricsScope, ReplicaSlicesDoNotDoubleCount) {
  EXPECT_EQ(ClusterServer::replica_scope(2, 1), "s2.r1");
  std::vector<SnapshotView> storage;
  const auto ptrs = open_shards(sharded4(), storage);

  const auto before = obs::MetricsRegistry::global().snapshot();
  ClusterServer cluster(&sharded4().routing, ptrs);
  for (std::uint32_t i = 0; i < 200; ++i) {
    Request q;
    q.type = RequestType::kGetProfile;
    q.user = i % kNodes;
    ASSERT_EQ(cluster.submit(q), ServeStatus::kOk);
  }
  std::vector<Response> responses;
  cluster.drain(responses);
  const auto delta =
      obs::delta(obs::MetricsRegistry::global().snapshot(), before);

  // Scoped replica counters moved; the default-scope "serve.*" series an
  // unsharded server would write stayed untouched — per-shard registries
  // reconcile without double counting.
  EXPECT_EQ(delta.value("serve.accepted"), 0);
  EXPECT_EQ(delta.value("serve.served"), 0);
  std::int64_t scoped_accepted = 0;
  for (std::size_t s = 0; s < cluster.shard_count(); ++s) {
    const std::string name =
        "serve." + ClusterServer::replica_scope(s, 0) + ".accepted";
    const std::int64_t slice = delta.value(name);
    EXPECT_GT(slice, 0) << name;
    scoped_accepted += slice;
  }
  EXPECT_EQ(scoped_accepted, 200);
  EXPECT_EQ(delta.value("serve.cluster.accepted"), 200);
  EXPECT_EQ(delta.value("serve.cluster.served"), 200);
}

TEST(ClusterStorm, ScriptedKillRecoverHoldsEveryInvariant) {
  ClusterStormConfig config;
  config.seed = 5;
  config.clients = 32;
  config.rounds = 64;
  config.probes = 96;
  config.replicas = 2;
  const auto report = run_cluster_storm(sharded4(), full_view(), config);
  EXPECT_TRUE(report.violations.empty())
      << (report.violations.empty() ? "" : report.violations.front());
  EXPECT_EQ(report.offered, report.accepted + report.rejected);
  EXPECT_EQ(report.responses, report.accepted);
  EXPECT_GT(report.dark_answers, 0u);
  EXPECT_EQ(report.post_probe_checksum, report.unsharded_probe_checksum);
  EXPECT_EQ(report.replica_stats.size(), 4u * config.replicas);
}

}  // namespace
}  // namespace gplus::serve
