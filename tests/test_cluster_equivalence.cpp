// Cluster answer equivalence: every request family served through the
// K-shard router must be identical — status, flags, payload — to the
// unsharded engine, at K=1, K=4 and K=7, and the full response stream
// must be bit-identical at every GPLUS_THREADS value. This is the
// DESIGN.md §13 contract the CI matrix gates; the
// CTest ".threads1" variant re-runs every case on the serial fallback.
//
// ShortestPathOracle keeps the node-count chooser ShortestPath used before
// it compared frontier edge sums: every pair that chooser answers within
// its bounds must get the same distance from the engine (v2, v3, mmap) and
// from a 4-shard cluster. ShortestPathChooser pins the choice on a
// hand-built hub graph.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.h"
#include "core/parallel.h"
#include "graph/builder.h"
#include "serve/cluster.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"
#include "serve/snapshot_file.h"
#include "serve/workload.h"
#include "stats/rng.h"
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

const ShardedSnapshot& sharded(std::size_t shards) {
  static std::vector<std::pair<std::size_t, ShardedSnapshot>> cache;
  for (const auto& [key, value] : cache) {
    if (key == shards) return value;
  }
  ShardingOptions opts;
  opts.shard_count = shards;
  cache.emplace_back(shards, split_snapshot(full_view(), opts));
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
                                    std::size_t shards) {
  const auto& split = sharded(shards);
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
  expect_identical(want, drain_cluster(batch, 1), "K=1");
  expect_identical(want, drain_cluster(batch, 4), "K=4");
}

TEST(ClusterEquivalence, OddShardCountMatchesToo) {
  // 3000 nodes over 7 shards: stripes of unequal size.
  const auto batch = probe_batch();
  expect_identical(drain_unsharded(batch), drain_cluster(batch, 7), "K=7");
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
  const auto got = drain_cluster(batch, 4);
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
  const auto& split = sharded(shards);
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
  const auto base = drain_cluster(batch, 4);
  core::set_thread_count(GetParam());
  const auto got = drain_cluster(batch, 4);
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
  const auto& split = sharded(4);
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

// ShortestPath payload fields.
std::uint32_t path_distance(const Response& r) {
  std::uint32_t d = 0;
  for (int i = 0; i < 4; ++i) d |= std::uint32_t{r.payload[i]} << (8 * i);
  return d;
}

std::uint64_t path_expanded(const Response& r) {
  std::uint64_t e = 0;
  for (int i = 0; i < 8; ++i) e |= std::uint64_t{r.payload[4 + i]} << (8 * i);
  return e;
}

struct OracleAnswer {
  std::uint32_t distance = kPathUnreachable;
  std::uint64_t expanded = 0;
  bool answered = true;  // false: the node budget ran out first
};

// The node-count chooser: the bidirectional BFS of shortest_path_core,
// expanding whichever frontier holds fewer nodes, with the same levels and
// bounds but no cost meter. Any chooser is exact until the node budget
// runs out, so its distances are the oracle for the edge-sum chooser.
OracleAnswer node_count_oracle(const SnapshotView& view,
                               const EngineConfig& config, graph::NodeId u,
                               graph::NodeId v) {
  OracleAnswer a;
  if (u == v) {
    a.distance = 0;
    a.expanded = 1;
    return a;
  }
  constexpr std::uint32_t kUnseen = 0xFFFFFFFF;
  std::vector<std::uint32_t> fwd(view.node_count(), kUnseen);
  std::vector<std::uint32_t> bwd(view.node_count(), kUnseen);
  fwd[u] = 0;
  bwd[v] = 0;
  std::vector<graph::NodeId> fwd_frontier{u};
  std::vector<graph::NodeId> bwd_frontier{v};
  std::vector<graph::NodeId> next;
  std::uint32_t fwd_depth = 0;
  std::uint32_t bwd_depth = 0;
  const std::uint64_t budget = config.path_node_budget;
  a.expanded = 2;
  while (!fwd_frontier.empty() && !bwd_frontier.empty() &&
         fwd_depth + bwd_depth < config.path_max_hops &&
         a.expanded < budget) {
    const bool forward = fwd_frontier.size() <= bwd_frontier.size();
    auto& frontier = forward ? fwd_frontier : bwd_frontier;
    std::vector<std::uint32_t>& mine = forward ? fwd : bwd;
    const std::vector<std::uint32_t>& other = forward ? bwd : fwd;
    const std::uint32_t depth = (forward ? fwd_depth : bwd_depth) + 1;
    next.clear();
    for (const graph::NodeId x : frontier) {
      NeighborScan scan = forward ? view.out_scan(x) : view.in_scan(x);
      graph::NodeId y = 0;
      while (a.expanded < budget && scan.next(y)) {
        if (mine[y] != kUnseen) continue;
        mine[y] = depth;
        ++a.expanded;
        if (other[y] != kUnseen) {
          a.distance = std::min(a.distance, depth + other[y]);
        }
        next.push_back(y);
      }
      if (a.expanded >= budget) break;
    }
    frontier.swap(next);
    (forward ? fwd_depth : bwd_depth) = depth;
    if (a.distance != kPathUnreachable &&
        a.distance <= fwd_depth + bwd_depth) {
      break;
    }
  }
  a.answered = a.expanded < budget;
  return a;
}

// The fixture pairs (probe_batch's valid ShortestPath requests, budgets
// dropped) plus Zipf-over-in-degree-rank pairs at the paper's α 1.3 and
// at α 1.0, drawn as the closed-loop workload draws them.
std::vector<Request> oracle_pairs() {
  std::vector<Request> pairs;
  for (Request q : probe_batch()) {
    if (q.type != RequestType::kShortestPath || q.user >= kNodes ||
        q.target >= kNodes) {
      continue;
    }
    q.cost_budget = 0;
    pairs.push_back(q);
  }
  const SnapshotView& view = full_view();
  std::vector<graph::NodeId> ranked(kNodes);
  std::iota(ranked.begin(), ranked.end(), graph::NodeId{0});
  std::sort(ranked.begin(), ranked.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              if (view.in_degree(a) != view.in_degree(b)) {
                return view.in_degree(a) > view.in_degree(b);
              }
              return a < b;
            });
  stats::Rng rng(35);
  for (const double alpha : {1.3, 1.0}) {
    const stats::ZipfSampler zipf(kNodes, alpha);
    for (int i = 0; i < 1500; ++i) {
      Request q;
      q.type = RequestType::kShortestPath;
      q.user = ranked[zipf.sample(rng) - 1];
      q.target = ranked[zipf.sample(rng) - 1];
      pairs.push_back(q);
    }
  }
  return pairs;
}

std::vector<Response> cluster_paths(const std::vector<Request>& pairs,
                                    const EngineConfig& engine) {
  const auto& split = sharded(4);
  std::vector<SnapshotView> storage;
  storage.reserve(split.shards.size());
  for (const auto& shard : split.shards) storage.emplace_back(shard.bytes());
  std::vector<const SnapshotView*> ptrs;
  for (const auto& view : storage) ptrs.push_back(&view);
  ClusterConfig config;
  config.server.queue_capacity = pairs.size();
  config.server.engine = engine;
  ClusterServer cluster(&split.routing, ptrs, config);
  for (const auto& q : pairs) {
    EXPECT_EQ(cluster.submit(q), ServeStatus::kOk);
  }
  std::vector<Response> responses;
  cluster.drain(responses);
  return responses;
}

// Every pair the oracle answers gets its distance from the engine on v2,
// v3 and mmap and from a 4-shard cluster; the four payloads and costs are
// equal. The default budget never runs out at 4000 nodes; the tight one
// makes the oracle give up on some pairs, and those are skipped.
TEST(ShortestPathOracle, EveryAnsweredPairKeepsItsDistance) {
  const std::vector<Request> pairs = oracle_pairs();
  const SnapshotBuffer v3 =
      build_snapshot(dataset(), {.version = kSnapshotVersion3});
  const auto path = std::filesystem::temp_directory_path() /
                    ("gplus_path_oracle_" + std::to_string(::getpid()) +
                     ".snap");
  save_snapshot(v3, path);
  {
    const SnapshotView v3_view(v3.bytes());
    const MappedSnapshot mapped(path);
    for (const std::uint64_t budget : {std::uint64_t{100'000},
                                       std::uint64_t{300}}) {
      EngineConfig config;
      config.path_node_budget = budget;
      const RequestEngine engines[] = {
          RequestEngine(&full_view(), config),
          RequestEngine(&v3_view, config),
          RequestEngine(&mapped.view(), config)};
      const std::vector<Response> cluster = cluster_paths(pairs, config);
      ASSERT_EQ(cluster.size(), pairs.size());
      std::size_t answered = 0;
      std::size_t reached = 0;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const Request& q = pairs[i];
        Response want;
        engines[0].execute(q, want);
        ASSERT_EQ(want.status, ServeStatus::kOk) << i;
        for (const RequestEngine& engine : engines) {
          Response got;
          engine.execute(q, got);
          EXPECT_EQ(got.cost, want.cost) << "budget " << budget << " " << i;
          ASSERT_EQ(got.payload, want.payload) << "budget " << budget << " "
                                               << i;
        }
        EXPECT_EQ(cluster[i].cost, want.cost) << "budget " << budget << " "
                                              << i;
        ASSERT_EQ(cluster[i].payload, want.payload)
            << "budget " << budget << " " << i;
        const OracleAnswer oracle =
            node_count_oracle(full_view(), config, q.user, q.target);
        if (!oracle.answered) continue;
        ++answered;
        if (oracle.distance != kPathUnreachable) ++reached;
        EXPECT_EQ(path_distance(want), oracle.distance)
            << "budget " << budget << " pair " << q.user << " -> "
            << q.target;
      }
      // Non-vacuous: most pairs are answered, and most answers are paths.
      EXPECT_GT(answered, pairs.size() / 2) << "budget " << budget;
      EXPECT_GT(reached, answered / 2) << "budget " << budget;
      if (budget == 100'000) {
        EXPECT_EQ(answered, pairs.size());
      }
    }
  }
  std::filesystem::remove(path);
}

// 0 -> {1..500}, 500 -> 501: the source's out-row holds 500 entries and
// the target is reached through one in-edge. By node count both roots are
// one node and the tie expands the hub's row; by edge sum (500 against 1)
// the search walks backward: 501's in-row finds 500, 500's finds the
// source. The source's own row is never read.
constexpr graph::NodeId kHubSource = 0;
constexpr graph::NodeId kBridge = 500;
constexpr graph::NodeId kHubTarget = 501;

SnapshotBuffer hub_snapshot() {
  graph::GraphBuilder builder(kHubTarget + 1);
  for (graph::NodeId y = 1; y <= kBridge; ++y) builder.add_edge(kHubSource, y);
  builder.add_edge(kBridge, kHubTarget);
  core::Dataset hub;
  hub.net.graph = builder.build();
  hub.profiles.resize(kHubTarget + 1);
  return build_snapshot(hub);
}

const Request kHubPath{.type = RequestType::kShortestPath,
                       .user = kHubSource,
                       .target = kHubTarget};

TEST(ShortestPathChooser, HubSourceExpandsTheSideWithFewerEdges) {
  const SnapshotBuffer snapshot = hub_snapshot();
  const SnapshotView view(snapshot.bytes());
  const RequestEngine engine(&view);
  Response r;
  engine.execute(kHubPath, r);
  ASSERT_EQ(r.status, ServeStatus::kOk);
  EXPECT_EQ(r.flags, 0);
  EXPECT_EQ(path_distance(r), 2u);
  EXPECT_EQ(path_expanded(r), 4u);  // the roots, 500, then the source
  EXPECT_EQ(r.cost, path_expanded(r) + 1);  // plus the dispatch unit
  // The node-count chooser expands the hub's row first.
  const OracleAnswer oracle =
      node_count_oracle(view, EngineConfig{}, kHubSource, kHubTarget);
  EXPECT_EQ(oracle.distance, 2u);
  EXPECT_EQ(oracle.expanded, 503u);
}

// The same pin on a 2-shard cluster behind an enabled, fault-free
// transport, first with every shard up, then with the hub's shard dark.
// Each BFS level expands one node on the other shard, so the run rolls
// exactly one rpc and sends one message per level: the chooser's degree
// reads roll none. The source's row is never read, so even with its
// shard dark the answer is complete and unflagged.
TEST(ShortestPathChooser, ClusterChoosesWithoutReadingTheHubShard) {
  const SnapshotBuffer snapshot = hub_snapshot();
  const SnapshotView view(snapshot.bytes());
  const ShardedSnapshot split = split_snapshot(view, {.shard_count = 2});
  const std::uint8_t hub_shard = split.routing.owner[kHubSource];
  ASSERT_NE(split.routing.owner[kBridge], hub_shard);
  ASSERT_NE(split.routing.owner[kHubTarget], hub_shard);
  std::vector<SnapshotView> storage;
  for (const auto& shard : split.shards) storage.emplace_back(shard.bytes());
  std::vector<const SnapshotView*> ptrs;
  for (const auto& v : storage) ptrs.push_back(&v);
  ClusterConfig config;
  config.transport.enabled = true;
  ClusterServer cluster(&split.routing, ptrs, config);

  for (const bool dark : {false, true}) {
    if (dark) cluster.kill_replica(hub_shard, 0);
    ASSERT_EQ(cluster.shard_dark(hub_shard), dark);
    const std::uint64_t rpcs = cluster.transport_stats().rpcs;
    const std::uint64_t messages = cluster.stats_snapshot().messages;
    ASSERT_EQ(cluster.submit(kHubPath), ServeStatus::kOk);
    std::vector<Response> responses;
    cluster.drain(responses);
    ASSERT_EQ(responses.size(), 1u);
    const Response& r = responses[0];
    EXPECT_EQ(r.status, ServeStatus::kOk) << "dark " << dark;
    EXPECT_EQ(r.flags, 0) << "dark " << dark;
    EXPECT_EQ(path_distance(r), 2u) << "dark " << dark;
    EXPECT_EQ(path_expanded(r), 4u) << "dark " << dark;
    EXPECT_EQ(r.cost, path_expanded(r) + 1) << "dark " << dark;
    EXPECT_EQ(cluster.transport_stats().rpcs - rpcs, 2u) << "dark " << dark;
    EXPECT_EQ(cluster.stats_snapshot().messages - messages, 2u)
        << "dark " << dark;
  }
}

}  // namespace
}  // namespace gplus::serve
