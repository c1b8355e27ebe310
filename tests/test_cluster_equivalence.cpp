// Cluster answer equivalence: every request family served through the
// K-shard router must be identical — status, flags, payload — to the
// unsharded engine, at K=1 and K=4, under both sharding policies, and the
// full response stream must be bit-identical at every GPLUS_THREADS
// value. This is the DESIGN.md §13 contract the CI matrix gates; the
// CTest ".threads1" variant re-runs every case on the serial fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/parallel.h"
#include "serve/cluster.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"
#include "serve/workload.h"
#include "storm/storm.h"

namespace gplus::serve {
namespace {

constexpr std::size_t kNodes = 4000;

const core::Dataset& dataset() {
  static const core::Dataset instance = core::make_standard_dataset(kNodes, 21);
  return instance;
}

const SnapshotView& full_view() {
  static const SnapshotBuffer snapshot = build_snapshot(dataset());
  static const SnapshotView instance{snapshot.bytes()};
  return instance;
}

const ShardedSnapshot& sharded(std::size_t shards, ShardingPolicy policy) {
  static std::vector<std::pair<std::pair<std::size_t, ShardingPolicy>,
                               ShardedSnapshot>>
      cache;
  for (const auto& [key, value] : cache) {
    if (key.first == shards && key.second == policy) return value;
  }
  ShardingOptions opts;
  opts.shard_count = shards;
  opts.policy = policy;
  cache.emplace_back(std::make_pair(shards, policy),
                     split_snapshot(full_view(), opts));
  return cache.back().second;
}

// The probe batch every comparison uses: per family a spread of valid
// targets plus the edge cases — out-of-range ids, paging offsets beyond
// the row, k=0 (cap default), k > cap, u==v paths, far/unreachable paths
// and tight cost budgets that force kDeadlineExceeded partials.
std::vector<Request> probe_batch() {
  std::vector<Request> batch;
  const auto n = static_cast<graph::NodeId>(kNodes);
  auto add = [&](RequestType type, graph::NodeId user, graph::NodeId target,
                 std::uint32_t offset, std::uint32_t limit,
                 std::uint32_t budget) {
    Request q;
    q.type = type;
    q.user = user;
    q.target = target;
    q.offset = offset;
    q.limit = limit;
    q.cost_budget = budget;
    batch.push_back(q);
  };
  for (std::uint32_t i = 0; i < 600; ++i) {
    const graph::NodeId u = (i * 131) % n;
    const graph::NodeId v = (i * 53 + 29) % n;
    add(RequestType::kGetProfile, u, 0, 0, 0, 0);
    add(RequestType::kGetOutCircle, u, 0, (i % 5) * 7, 20, 0);
    add(RequestType::kGetInCircle, u, 0, (i % 3) * 11, 25, 0);
    add(RequestType::kReciprocity, u, 0, 0, 0, 0);
    add(RequestType::kDegree, u, 0, 0, 0, 0);
    add(RequestType::kShortestPath, u, v, 0, 0, 0);
    add(RequestType::kTopK, 0, 0, 0, 1 + i % 20, 0);
    add(RequestType::kSuggest, u, 0, 0, 1 + i % 20, 0);
  }
  // Edge cases.
  add(RequestType::kGetProfile, n, 0, 0, 0, 0);          // invalid user
  add(RequestType::kDegree, n + 7, 0, 0, 0, 0);          // invalid user
  add(RequestType::kGetOutCircle, 3, 0, 1'000'000, 50, 0);  // offset past row
  add(RequestType::kShortestPath, 1, n, 0, 0, 0);        // invalid target
  add(RequestType::kShortestPath, n, 1, 0, 0, 0);        // invalid source
  add(RequestType::kShortestPath, 42, 42, 0, 0, 0);      // u == v
  add(RequestType::kShortestPath, 5, 4999 % n, 0, 0, 3);   // budget partial
  add(RequestType::kShortestPath, 9, 4001 % n, 0, 0, 12);  // budget partial
  add(RequestType::kTopK, 0, 0, 0, 0, 0);                // k = 0 -> cap
  add(RequestType::kTopK, 0, 0, 0, 1'000'000, 0);        // k > cap
  add(RequestType::kTopK, n + 1, 0, 0, 10, 0);           // user ignored
  add(RequestType::kTopK, 0, 0, 0, 50, 7);               // budget partial
  add(RequestType::kSuggest, n, 0, 0, 10, 0);            // invalid user
  add(RequestType::kSuggest, 8, 0, 0, 0, 0);             // k = 0 -> cap
  add(RequestType::kSuggest, 8, 0, 0, 1'000'000, 0);     // k > cap
  add(RequestType::kSuggest, 13, 0, 0, 20, 30);          // budget partial
  add(RequestType::kSuggest, 17, 0, 0, 20, 2);           // budget at root
  return batch;
}

std::vector<Response> drain_unsharded(const std::vector<Request>& batch) {
  ServerConfig config;
  config.queue_capacity = batch.size() + 16;
  QueryServer server(&full_view(), config);
  for (const auto& q : batch) {
    EXPECT_EQ(server.submit(q), ServeStatus::kOk);
  }
  std::vector<Response> responses;
  server.drain(responses);
  return responses;
}

std::vector<Response> drain_cluster(const std::vector<Request>& batch,
                                    std::size_t shards,
                                    ShardingPolicy policy) {
  const auto& split = sharded(shards, policy);
  std::vector<SnapshotView> storage;
  storage.reserve(split.shards.size());
  for (const auto& shard : split.shards) storage.emplace_back(shard.bytes());
  std::vector<const SnapshotView*> ptrs;
  for (const auto& view : storage) ptrs.push_back(&view);
  ClusterConfig config;
  config.server.queue_capacity = batch.size() + 16;
  ClusterServer cluster(&split.routing, ptrs, config);
  for (const auto& q : batch) {
    EXPECT_EQ(cluster.submit(q), ServeStatus::kOk);
  }
  std::vector<Response> responses;
  cluster.drain(responses);
  return responses;
}

void expect_identical(const std::vector<Response>& want,
                      const std::vector<Response>& got, const char* label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].status, got[i].status) << label << " slot " << i;
    EXPECT_EQ(want[i].flags, got[i].flags) << label << " slot " << i;
    ASSERT_EQ(want[i].payload, got[i].payload) << label << " slot " << i;
  }
}

TEST(ClusterEquivalence, EveryFamilyMatchesUnshardedAtK1AndK4) {
  const auto batch = probe_batch();
  const auto want = drain_unsharded(batch);
  ASSERT_EQ(want.size(), batch.size());
  expect_identical(want, drain_cluster(batch, 1, ShardingPolicy::kRankStripe),
                   "K=1 stripe");
  expect_identical(want, drain_cluster(batch, 4, ShardingPolicy::kRankStripe),
                   "K=4 stripe");
}

TEST(ClusterEquivalence, RangePolicyMatchesToo) {
  const auto batch = probe_batch();
  const auto want = drain_unsharded(batch);
  expect_identical(want, drain_cluster(batch, 4, ShardingPolicy::kRankRange),
                   "K=4 range");
  expect_identical(want, drain_cluster(batch, 7, ShardingPolicy::kRankRange),
                   "K=7 range");
}

TEST(ClusterEquivalence, ScatterCostsMatchTheEngineExactly) {
  // Deadline outcomes are a pure function of virtual cost, so scatter
  // executions must meter the exact engine cost, not an approximation.
  std::vector<Request> batch;
  const RequestType scatter_types[] = {RequestType::kShortestPath,
                                       RequestType::kTopK,
                                       RequestType::kSuggest};
  for (std::uint32_t i = 0; i < 300; ++i) {
    Request q;
    q.type = scatter_types[i % 3];
    q.user = (i * 89) % kNodes;
    q.target = (i * 17 + 5) % kNodes;
    q.limit = q.type == RequestType::kShortestPath ? 0 : 1 + i % 30;
    q.cost_budget = i % 4 == 0 ? 5 + i % 40 : 0;
    batch.push_back(q);
  }
  const auto want = drain_unsharded(batch);
  const auto got = drain_cluster(batch, 4, ShardingPolicy::kRankStripe);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].status, got[i].status) << i;
    EXPECT_EQ(want[i].cost, got[i].cost) << i;
    ASSERT_EQ(want[i].payload, got[i].payload) << i;
  }
}

struct ClusterRun {
  LoadReport report;
  ClusterStats stats;
};

ClusterRun run_cluster_workload(std::size_t shards,
                                const WorkloadMix& mix,
                                std::uint64_t requests) {
  const auto& split = sharded(shards, ShardingPolicy::kRankStripe);
  std::vector<SnapshotView> storage;
  storage.reserve(split.shards.size());
  for (const auto& shard : split.shards) storage.emplace_back(shard.bytes());
  std::vector<const SnapshotView*> ptrs;
  for (const auto& view : storage) ptrs.push_back(&view);
  ClusterConfig config;
  config.replicas = 2;
  ClusterServer cluster(&split.routing, ptrs, config);
  WorkloadConfig workload;
  workload.mix = mix;
  workload.seed = 99;
  workload.clients = 64;
  workload.requests = requests;
  workload.measure_latency = false;
  ClusterRun run;
  run.report = run_closed_loop(cluster, full_view(), workload);
  run.stats = cluster.stats_snapshot();
  return run;
}

TEST(ClusterEquivalence, WorkloadChecksumMatchesUnshardedServer) {
  for (const auto& [name, mix] :
       {std::pair{"mixed", WorkloadMix::mixed()},
        std::pair{"path", WorkloadMix::path()},
        std::pair{"suggest", WorkloadMix::suggest()}}) {
    ServerConfig config;
    QueryServer server(&full_view(), config);
    WorkloadConfig workload;
    workload.mix = mix;
    workload.seed = 99;
    workload.clients = 64;
    workload.requests = 20'000;
    workload.measure_latency = false;
    const auto want = run_closed_loop(server, workload);
    const auto got = run_cluster_workload(4, mix, 20'000);
    EXPECT_EQ(want.checksum, got.report.checksum) << name;
    EXPECT_EQ(want.served, got.report.served) << name;
    EXPECT_EQ(want.response_bytes, got.report.response_bytes) << name;
  }
}

class ClusterLaneEquivalence : public ::testing::TestWithParam<std::size_t> {
 protected:
  void TearDown() override { core::set_thread_count(0); }
};

TEST_P(ClusterLaneEquivalence, WorkloadBitIdenticalAcrossLaneCounts) {
  core::set_thread_count(1);
  const auto base = run_cluster_workload(4, WorkloadMix::mixed(), 20'000);
  core::set_thread_count(GetParam());
  const auto got = run_cluster_workload(4, WorkloadMix::mixed(), 20'000);
  EXPECT_EQ(base.report.checksum, got.report.checksum);
  EXPECT_EQ(base.report.response_bytes, got.report.response_bytes);
  EXPECT_EQ(base.report.served, got.report.served);
  EXPECT_EQ(base.report.rejected, got.report.rejected);
  EXPECT_EQ(base.stats.accepted, got.stats.accepted);
  EXPECT_EQ(base.stats.scatter, got.stats.scatter);
  EXPECT_EQ(base.stats.messages, got.stats.messages);
  EXPECT_EQ(base.stats.by_status, got.stats.by_status);
}

TEST_P(ClusterLaneEquivalence, DrainPayloadsMatchSerialExecution) {
  const auto batch = probe_batch();
  core::set_thread_count(1);
  const auto base = drain_cluster(batch, 4, ShardingPolicy::kRankStripe);
  core::set_thread_count(GetParam());
  const auto got = drain_cluster(batch, 4, ShardingPolicy::kRankStripe);
  ASSERT_EQ(base.size(), got.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].status, got[i].status) << i;
    EXPECT_EQ(base[i].flags, got[i].flags) << i;
    EXPECT_EQ(base[i].cost, got[i].cost) << i;
    ASSERT_EQ(base[i].payload, got[i].payload) << i;
  }
}

TEST_P(ClusterLaneEquivalence, StormStateBitIdenticalAcrossLaneCounts) {
  ClusterStormConfig config;
  config.seed = 11;
  config.clients = 24;
  config.rounds = 48;
  config.probes = 64;
  config.replicas = 2;
  const auto& split = sharded(4, ShardingPolicy::kRankStripe);
  core::set_thread_count(1);
  const auto base = run_cluster_storm(split, full_view(), config);
  core::set_thread_count(GetParam());
  const auto got = run_cluster_storm(split, full_view(), config);
  EXPECT_TRUE(base.violations.empty());
  EXPECT_TRUE(got.violations.empty());
  EXPECT_EQ(base.checksum, got.checksum);
  EXPECT_EQ(base.by_status, got.by_status);
  EXPECT_EQ(base.offered, got.offered);
  EXPECT_EQ(base.dark_answers, got.dark_answers);
  EXPECT_EQ(base.post_probe_checksum, got.post_probe_checksum);
  EXPECT_EQ(base.unsharded_probe_checksum, got.unsharded_probe_checksum);
}

std::vector<std::size_t> lane_counts() {
  std::vector<std::size_t> lanes{2, 7};
  const std::size_t hw =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  if (std::find(lanes.begin(), lanes.end(), hw) == lanes.end()) {
    lanes.push_back(hw);
  }
  return lanes;
}

INSTANTIATE_TEST_SUITE_P(
    Lanes, ClusterLaneEquivalence, ::testing::ValuesIn(lane_counts()),
    [](const auto& info) { return "lanes" + std::to_string(info.param); });

}  // namespace
}  // namespace gplus::serve
