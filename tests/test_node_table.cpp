// Per-request scratch for ShortestPath and Suggest (serve/node_table.h,
// DESIGN.md §13-14).
//
// NodeTable: growth across the load-1/2 boundary, clear through the
// used-slot list, release past the retention cap and reuse, the extreme
// ids, and keys that all share a home slot under a plain mask.
//
// ScratchReuse runs one fixed request set — a budget-exhausting hub
// ShortestPath, small paths, hub and leaf Suggests, deadline partials —
// forward and reversed through the engine, a QueryServer drain and a
// 4-shard cluster, so every per-thread table is reused after both a
// larger and a smaller request. Each response's status, flags, cost and
// payload must match a digest recorded from the map-based cores.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "core/dataset.h"
#include "serve/cluster.h"
#include "serve/node_table.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"

namespace gplus::serve {
namespace {

constexpr graph::NodeId kLargestId = NodeTable::kNoNode - 1;

TEST(NodeTable, FindOnAnEmptyTable) {
  const NodeTable table;
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(12'345), nullptr);
  EXPECT_EQ(table.find(kLargestId), nullptr);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
}

TEST(NodeTable, GrowsAtHalfLoadAndKeepsEveryKey) {
  NodeTable table;
  const auto keys = static_cast<graph::NodeId>(4 * kScratchRetainSlots);
  std::size_t doublings = 0;
  for (graph::NodeId key = 0; key < keys; ++key) {
    const std::size_t before = table.capacity();
    const auto [value, inserted] = table.try_emplace(key * 7 + 1, key);
    ASSERT_TRUE(inserted) << key;
    EXPECT_EQ(*value, key);
    // The load never passes 1/2, and the table doubles only at it.
    ASSERT_LE(2 * table.size(), table.capacity()) << key;
    if (before != 0 && table.capacity() != before) {
      EXPECT_EQ(table.capacity(), 2 * before) << key;
      EXPECT_EQ(2 * (table.size() - 1), before) << key;
      ++doublings;
    }
  }
  EXPECT_GE(doublings, 8u);
  for (graph::NodeId key = 0; key < keys; ++key) {
    const std::uint32_t* value = table.find(key * 7 + 1);
    ASSERT_NE(value, nullptr) << key;
    EXPECT_EQ(*value, key);
    ASSERT_EQ(table.find(key * 7 + 2), nullptr) << key;
  }
  // A present key keeps its first value.
  const auto [value, inserted] = table.try_emplace(8, 99);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*value, 1u);
}

TEST(NodeTable, ClearLeavesNoStaleKey) {
  NodeTable table;
  for (graph::NodeId key = 0; key < 1'000; ++key) table.try_emplace(key, key);
  const std::size_t capacity = table.capacity();
  ASSERT_LE(capacity, kScratchRetainSlots);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), capacity) << "storage up to the cap is kept";
  for (graph::NodeId key = 0; key < 1'000; ++key) {
    EXPECT_EQ(table.find(key), nullptr) << key;
  }
  for (graph::NodeId key = 500; key < 700; ++key) {
    EXPECT_TRUE(table.try_emplace(key, key + 1).second) << key;
  }
  for (graph::NodeId key = 0; key < 1'000; ++key) {
    const std::uint32_t* value = table.find(key);
    if (key >= 500 && key < 700) {
      ASSERT_NE(value, nullptr) << key;
      EXPECT_EQ(*value, key + 1);
    } else {
      EXPECT_EQ(value, nullptr) << key;
    }
  }
}

TEST(NodeTable, ReleasesPastTheRetentionCapThenReuses) {
  NodeTable table;
  // Full at the cap's load 1/2: kept.
  const auto half = static_cast<graph::NodeId>(kScratchRetainSlots / 2);
  for (graph::NodeId key = 0; key < half; ++key) table.try_emplace(key, key);
  ASSERT_EQ(table.capacity(), kScratchRetainSlots);
  table.clear();
  EXPECT_EQ(table.capacity(), kScratchRetainSlots);
  // One key more grows it past the cap: released.
  for (graph::NodeId key = 0; key <= half; ++key) table.try_emplace(key, key);
  ASSERT_GT(table.capacity(), kScratchRetainSlots);
  table.clear();
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(3), nullptr);
  EXPECT_TRUE(table.try_emplace(3, 30).second);
  EXPECT_TRUE(table.try_emplace(half + 5, 31).second);
  EXPECT_LT(table.capacity(), kScratchRetainSlots) << "regrown from empty";
  EXPECT_EQ(*table.find(3), 30u);
  EXPECT_EQ(*table.find(half + 5), 31u);
  EXPECT_EQ(table.find(4), nullptr);
}

TEST(NodeTable, KeyZeroAndTheLargestValidId) {
  NodeTable table;
  EXPECT_TRUE(table.try_emplace(0, 10).second);
  EXPECT_TRUE(table.try_emplace(kLargestId, 20).second);
  EXPECT_FALSE(table.try_emplace(0, 11).second);
  EXPECT_FALSE(table.try_emplace(kLargestId, 21).second);
  EXPECT_EQ(*table.find(0), 10u);
  EXPECT_EQ(*table.find(kLargestId), 20u);
  EXPECT_EQ(table.find(NodeTable::kNoNode), nullptr);
  EXPECT_EQ(table.size(), 2u);
  table.clear();
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(kLargestId), nullptr);
}

TEST(NodeTable, TenThousandCollidingKeys) {
  // Multiples of every capacity the table passes through: one home slot
  // under a plain mask of the id.
  constexpr graph::NodeId kStride = graph::NodeId{1} << 16;
  NodeTable table;
  for (graph::NodeId i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(table.try_emplace(i * kStride, i).second) << i;
  }
  EXPECT_EQ(table.size(), 10'000u);
  for (graph::NodeId i = 0; i < 10'000; ++i) {
    const std::uint32_t* value = table.find(i * kStride);
    ASSERT_NE(value, nullptr) << i;
    EXPECT_EQ(*value, i);
    EXPECT_EQ(table.find(i * kStride + 1), nullptr) << i;
  }
}

TEST(ScratchVector, ClearKeepsOnlyStorageUnderTheCap) {
  std::vector<graph::NodeId> small(kScratchRetainSlots);
  clear_scratch(small);
  EXPECT_TRUE(small.empty());
  EXPECT_EQ(small.capacity(), kScratchRetainSlots);
  std::vector<graph::NodeId> large(kScratchRetainSlots + 1);
  clear_scratch(large);
  EXPECT_TRUE(large.empty());
  EXPECT_EQ(large.capacity(), 0u);
}

TEST(ScratchLease, ClearsOnEveryExit) {
  struct Counted {
    int clears = 0;
    void clear() noexcept { ++clears; }
  } scratch;
  { const ScratchLease lease(scratch); }
  EXPECT_EQ(scratch.clears, 1);
  try {
    const ScratchLease lease(scratch);
    throw std::runtime_error("mid-request");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(scratch.clears, 2);
}

constexpr std::size_t kNodes = 20'000;
// Small enough that the hub path below runs out of it.
constexpr std::uint64_t kPathBudget = 5'000;

const core::Dataset& dataset() {
  static const core::Dataset instance =
      core::make_standard_dataset(kNodes, 31);
  return instance;
}

const SnapshotView& view() {
  static const SnapshotBuffer snapshot = build_snapshot(dataset());
  static const SnapshotView instance{snapshot.bytes()};
  return instance;
}

EngineConfig engine_config() {
  EngineConfig config;
  config.path_node_budget = kPathBudget;
  return config;
}

std::uint32_t load_u32(const std::vector<std::uint8_t>& p, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[at + i]} << (8 * i);
  return v;
}

std::uint64_t load_u64(const std::vector<std::uint8_t>& p, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[at + i]} << (8 * i);
  return v;
}

// FNV-1a over status, flags, cost and payload.
std::uint64_t digest(const Response& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint8_t byte) {
    h = (h ^ byte) * 0x100000001b3ULL;
  };
  mix(static_cast<std::uint8_t>(r.status));
  mix(r.flags);
  for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(r.cost >> (8 * i)));
  for (const std::uint8_t byte : r.payload) mix(byte);
  return h;
}

struct Landmarks {
  graph::NodeId in_hub = 0;   // largest in-degree
  graph::NodeId out_hub = 0;  // largest out-degree
  graph::NodeId leaf = 0;     // lowest id with out-degree 1
};

Landmarks landmarks() {
  Landmarks m;
  bool leaf_found = false;
  for (graph::NodeId u = 0; u < kNodes; ++u) {
    if (view().in_degree(u) > view().in_degree(m.in_hub)) m.in_hub = u;
    if (view().out_degree(u) > view().out_degree(m.out_hub)) m.out_hub = u;
    if (!leaf_found && view().out_degree(u) == 1) {
      m.leaf = u;
      leaf_found = true;
    }
  }
  return m;
}

// The in-hub's path to this node expands the whole kPathBudget.
constexpr graph::NodeId kExhaustedTarget = 693;

std::vector<Request> request_set() {
  const Landmarks m = landmarks();
  const auto path = [](graph::NodeId u, graph::NodeId v,
                       std::uint32_t budget = 0) {
    return Request{.type = RequestType::kShortestPath,
                   .user = u,
                   .target = v,
                   .cost_budget = budget};
  };
  const auto suggest = [](graph::NodeId u, std::uint32_t limit,
                          std::uint32_t budget = 0) {
    return Request{.type = RequestType::kSuggest,
                   .user = u,
                   .limit = limit,
                   .cost_budget = budget};
  };
  return {
      path(m.in_hub, kExhaustedTarget),
      path(m.leaf, m.in_hub),
      suggest(m.in_hub, 50),
      path(17, 4'203),
      suggest(m.leaf, 10),
      path(m.out_hub, m.leaf),
      suggest(m.out_hub, 20),
      path(m.leaf, m.leaf),
      path(9'001, 12'345),
      suggest(m.in_hub, 50, 2'000),  // deadline mid-walk
      path(m.in_hub, kExhaustedTarget, 1'500),  // deadline mid-BFS
      suggest(m.out_hub, 0),  // limit 0: the cap
      path(m.out_hub, 451),
  };
}

// Recorded from the std::unordered_map cores, in request_set() order.
constexpr std::uint64_t kDigests[] = {
    0x927b242cf923b318, 0xa79e26a78342b298, 0x3d77b3d2b9542ea2,
    0x3822fe89565a75e8, 0x121d4ecba17f3933, 0x87cab388ed930d29,
    0x5606628abad29ca7, 0x9da6f2206a181ffe, 0x30919a4bc025ad8e,
    0x1040942970f39dd9, 0xd419fb777fb27c53, 0x15dd72d6ce907b39,
    0x4995a59298916728,
};

void expect_recorded(const std::vector<Response>& responses,
                     const std::vector<std::size_t>& order,
                     const char* where) {
  ASSERT_EQ(responses.size(), order.size()) << where;
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(digest(responses[i]), kDigests[order[i]])
        << where << ": request " << order[i] << " digest 0x" << std::hex
        << digest(responses[i]);
  }
}

// Forward, reversed, forward again: every request follows both a larger
// and a smaller one.
std::vector<std::size_t> round_trip_order(std::size_t n, std::size_t rounds) {
  std::vector<std::size_t> order;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      order.push_back(round % 2 == 0 ? i : n - 1 - i);
    }
  }
  return order;
}

TEST(ScratchReuse, RequestSetHitsItsShapes) {
  const RequestEngine engine(&view(), engine_config());
  const std::vector<Request> requests = request_set();
  ASSERT_EQ(requests.size(), std::size(kDigests));
  Response hub_path;
  engine.execute(requests[0], hub_path);
  ASSERT_EQ(hub_path.status, ServeStatus::kOk);
  EXPECT_EQ(load_u64(hub_path.payload, 4), kPathBudget)
      << "the hub path no longer exhausts its node budget";
  Response hub_suggest;
  engine.execute(requests[2], hub_suggest);
  ASSERT_EQ(hub_suggest.status, ServeStatus::kOk);
  EXPECT_GT(load_u32(hub_suggest.payload, 0), kScratchRetainSlots / 2)
      << "the hub Suggest no longer outgrows the retained table";
  Response deadline_suggest;
  engine.execute(requests[9], deadline_suggest);
  EXPECT_EQ(deadline_suggest.status, ServeStatus::kDeadlineExceeded);
  Response deadline_path;
  engine.execute(requests[10], deadline_path);
  EXPECT_EQ(deadline_path.status, ServeStatus::kDeadlineExceeded);
}

TEST(ScratchReuse, EngineForwardAndReversed) {
  const RequestEngine engine(&view(), engine_config());
  const std::vector<Request> requests = request_set();
  const std::vector<std::size_t> order =
      round_trip_order(requests.size(), 3);
  std::vector<Response> responses(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    engine.execute(requests[order[i]], responses[i]);
  }
  expect_recorded(responses, order, "engine");
}

TEST(ScratchReuse, ServerDrainForwardAndReversed) {
  // No cache, so every request executes; enough rounds that each pool
  // lane's 64-request chunk mixes large and small requests.
  ServerConfig config;
  config.cache_capacity = 0;
  config.engine = engine_config();
  QueryServer server(&view(), config);
  const std::vector<Request> requests = request_set();
  const std::vector<std::size_t> order =
      round_trip_order(requests.size(), 24);
  for (const std::size_t i : order) {
    ASSERT_EQ(server.submit(requests[i]), ServeStatus::kOk);
  }
  std::vector<Response> responses;
  server.drain(responses);
  expect_recorded(responses, order, "server");
}

TEST(ScratchReuse, ClusterForwardAndReversed) {
  ShardingOptions options;
  options.shard_count = 4;
  const ShardedSnapshot sharded = split_snapshot(view(), options);
  std::vector<SnapshotView> shard_views;
  for (const auto& shard : sharded.shards)
    shard_views.emplace_back(shard.bytes());
  std::vector<const SnapshotView*> ptrs;
  for (const auto& v : shard_views) ptrs.push_back(&v);
  ClusterConfig config;
  config.server.cache_capacity = 0;
  config.server.engine = engine_config();
  ClusterServer cluster(&sharded.routing, ptrs, config);
  const std::vector<Request> requests = request_set();
  const std::vector<std::size_t> order =
      round_trip_order(requests.size(), 24);
  for (const std::size_t i : order) {
    ASSERT_EQ(cluster.submit(requests[i]), ServeStatus::kOk);
  }
  std::vector<Response> responses;
  cluster.drain(responses);
  expect_recorded(responses, order, "cluster");
}

}  // namespace
}  // namespace gplus::serve
