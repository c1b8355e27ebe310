// kSuggest request-family tests (serve/suggest.h, DESIGN.md §14).
//
// Covers the full determinism contract: hand-checked scores on a tiny
// graph, payload-layout invariants on the standard dataset, bit-identity
// across the v2/v3 snapshot formats (including mmap), deadline partials
// with patched counts, error statuses, LRU-cache interaction and 1-vs-N
// lane equivalence. Kernel agreement on Suggest's row pairs is checked
// per call in test_intersect.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <vector>

#include "core/dataset.h"
#include "core/parallel.h"
#include "graph/builder.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/snapshot_file.h"
#include "serve/suggest.h"
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

// One decoded suggestion entry (layout pinned in serve/suggest.h).
struct Entry {
  std::uint32_t node = 0;
  std::uint32_t common = 0;
  std::uint32_t mutual = 0;
  std::uint32_t recip_milli = 0;
  std::uint64_t aa_micro = 0;
};

struct Decoded {
  std::uint32_t found = 0;
  std::uint64_t scanned = 0;
  std::vector<Entry> entries;
};

Decoded decode(const Response& r) {
  Decoded d;
  EXPECT_GE(r.payload.size(), kSuggestHeaderBytes);
  d.found = get_u32(r.payload, 0);
  const std::uint32_t count = get_u32(r.payload, 4);
  d.scanned = get_u64(r.payload, 8);
  EXPECT_EQ(r.payload.size(),
            kSuggestHeaderBytes + std::size_t{count} * kSuggestEntryBytes);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t at = kSuggestHeaderBytes + std::size_t{i} * 24;
    d.entries.push_back(Entry{get_u32(r.payload, at),
                              get_u32(r.payload, at + 4),
                              get_u32(r.payload, at + 8),
                              get_u32(r.payload, at + 12),
                              get_u64(r.payload, at + 16)});
  }
  return d;
}

// Builds a snapshot over a hand-specified edge list (default profiles).
SnapshotBuffer tiny_snapshot(graph::NodeId nodes,
                             const std::vector<std::pair<graph::NodeId,
                                                         graph::NodeId>>& edges,
                             std::uint32_t version = kSnapshotVersion2) {
  graph::GraphBuilder builder(nodes);
  for (const auto& [u, v] : edges) builder.add_edge(u, v);
  core::Dataset dataset;
  dataset.net.graph = builder.build();
  dataset.profiles.resize(nodes);
  SnapshotOptions options;
  options.version = version;
  return build_snapshot(dataset, options);
}

// Mirrors reciprocation_milli in serve/suggest.cpp — the test recomputes
// the expected score from first principles for the hand-checked graph.
std::uint32_t expect_recip(std::uint64_t mutual, std::uint64_t in_w,
                           std::uint64_t out_w, std::uint64_t max_in) {
  const double m = static_cast<double>(mutual);
  const double mutual_f = m / (m + 4.0);
  const double balance = std::min(
      1.0, static_cast<double>(out_w + 1) / static_cast<double>(in_w + 1));
  const double hub =
      max_in > 0 ? std::log2(1.0 + static_cast<double>(in_w)) /
                       std::log2(1.0 + static_cast<double>(max_in))
                 : 0.0;
  return static_cast<std::uint32_t>(
      std::llround((0.55 * mutual_f + 0.30 * balance + 0.15 * (1.0 - hub)) *
                   1000.0));
}

TEST(SuggestTiny, HandCheckedScoresOnAFixedGraph) {
  // 0 -> {1, 2}; 1 -> {3, 4}; 2 -> {0, 3}; 3 -> {0}; 4 -> {5}; 5 -> {}.
  // Candidates for u=0: 3 (via 1 and 2, cn=2) and 4 (via 1, cn=1).
  // 0 itself and direct friends are excluded.
  const SnapshotBuffer snapshot = tiny_snapshot(
      6, {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 0}, {2, 3}, {3, 0}, {4, 5}});
  const SnapshotView view(snapshot.bytes());
  const RequestEngine engine(&view);

  Response r;
  engine.execute({.type = RequestType::kSuggest, .user = 0, .limit = 10}, r);
  ASSERT_EQ(r.status, ServeStatus::kOk);
  EXPECT_EQ(r.flags, 0);
  const Decoded d = decode(r);
  EXPECT_EQ(d.found, 2u);
  EXPECT_EQ(d.scanned, 4u);  // out(1)={3,4} + out(2)={0,3}
  ASSERT_EQ(d.entries.size(), 2u);

  // Adamic-Adar terms use total degree: deg(1)=out2+in1=3, deg(2)=2+1=3.
  const double aa_via_1 = 1.0 / std::log(3.0);
  const double aa_via_2 = 1.0 / std::log(3.0);
  const Entry& first = d.entries[0];
  const Entry& second = d.entries[1];
  EXPECT_EQ(first.node, 3u);
  EXPECT_EQ(first.common, 2u);
  EXPECT_EQ(first.aa_micro, static_cast<std::uint64_t>(
                                std::llround((aa_via_1 + aa_via_2) * 1e6)));
  EXPECT_EQ(second.node, 4u);
  EXPECT_EQ(second.common, 1u);
  EXPECT_EQ(second.aa_micro,
            static_cast<std::uint64_t>(std::llround(aa_via_1 * 1e6)));

  // Mutual neighbors: friends(0)={1,2}; out(3)={0} -> 0; out(4)={5} -> 0.
  EXPECT_EQ(first.mutual, 0u);
  EXPECT_EQ(second.mutual, 0u);

  // Reciprocation: max in-degree in this graph is 2 (node 0 and node 3).
  EXPECT_EQ(first.recip_milli, expect_recip(0, view.in_degree(3),
                                            view.out_degree(3), 2));
  EXPECT_EQ(second.recip_milli, expect_recip(0, view.in_degree(4),
                                             view.out_degree(4), 2));
}

TEST(SuggestTiny, MutualNeighborsFeedTheScore) {
  // u=0 follows {1, 2}; candidate 3 follows {1, 2, 4} back -> mutual=2.
  const SnapshotBuffer snapshot = tiny_snapshot(
      5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 1}, {3, 2}, {3, 4}});
  const SnapshotView view(snapshot.bytes());
  const RequestEngine engine(&view);
  Response r;
  engine.execute({.type = RequestType::kSuggest, .user = 0, .limit = 4}, r);
  ASSERT_EQ(r.status, ServeStatus::kOk);
  const Decoded d = decode(r);
  ASSERT_EQ(d.entries.size(), 1u);
  EXPECT_EQ(d.entries[0].node, 3u);
  EXPECT_EQ(d.entries[0].common, 2u);
  EXPECT_EQ(d.entries[0].mutual, 2u);
  // More mutual evidence must not lower the score versus zero evidence.
  EXPECT_GT(d.entries[0].recip_milli,
            expect_recip(0, view.in_degree(3), view.out_degree(3), 2));
}

class SuggestStandard : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 2'000;

  static const core::Dataset& dataset() {
    static const core::Dataset instance =
        core::make_standard_dataset(kNodes, 7);
    return instance;
  }
  static const SnapshotBuffer& v2() {
    static const SnapshotBuffer instance = build_snapshot(dataset());
    return instance;
  }
  static const SnapshotBuffer& v3() {
    static const SnapshotBuffer instance = [] {
      SnapshotOptions options;
      options.version = kSnapshotVersion3;
      return build_snapshot(dataset(), options);
    }();
    return instance;
  }
  static const SnapshotView& view() {
    static const SnapshotView instance{v2().bytes()};
    return instance;
  }

  static std::vector<Request> batch() {
    std::vector<Request> requests;
    for (graph::NodeId u = 0; u < kNodes; u += 23) {
      requests.push_back(
          {.type = RequestType::kSuggest, .user = u, .limit = 10});
      requests.push_back({.type = RequestType::kSuggest,
                          .user = u,
                          .limit = 30,
                          .cost_budget = 60});
    }
    return requests;
  }
};

TEST_F(SuggestStandard, PayloadInvariantsHold) {
  const RequestEngine engine(&view());
  std::size_t non_empty = 0;
  for (graph::NodeId u = 0; u < kNodes; u += 11) {
    Response r;
    engine.execute({.type = RequestType::kSuggest, .user = u, .limit = 10}, r);
    ASSERT_EQ(r.status, ServeStatus::kOk) << u;
    const Decoded d = decode(r);
    EXPECT_LE(d.entries.size(), 10u) << u;
    EXPECT_EQ(d.entries.size(), std::min<std::uint64_t>(10, d.found)) << u;
    if (!d.entries.empty()) ++non_empty;
    const std::vector<graph::NodeId> friends = [&] {
      std::vector<graph::NodeId> out;
      NeighborScan scan = view().out_scan(u);
      graph::NodeId v = 0;
      while (scan.next(v)) out.push_back(v);
      return out;
    }();
    for (std::size_t i = 0; i < d.entries.size(); ++i) {
      const Entry& e = d.entries[i];
      EXPECT_LT(e.node, kNodes) << u;
      EXPECT_NE(e.node, u) << "self-suggestion";
      EXPECT_FALSE(std::binary_search(friends.begin(), friends.end(), e.node))
          << "suggested an existing friend of " << u;
      EXPECT_GE(e.common, 1u) << u;
      EXPECT_LE(e.recip_milli, 1000u) << u;
      if (i > 0) {
        // Ranking is the total order (aa desc, cn desc, id asc).
        const Entry& prev = d.entries[i - 1];
        const bool ordered =
            prev.aa_micro > e.aa_micro ||
            (prev.aa_micro == e.aa_micro &&
             (prev.common > e.common ||
              (prev.common == e.common && prev.node < e.node)));
        EXPECT_TRUE(ordered) << "rank order broken at " << u << "#" << i;
      }
    }
    // Cost: 1 dispatch + 1 per expanded neighbor + 1 per scanned edge +
    // 1 per emission. scanned alone is a lower bound witness.
    EXPECT_GE(r.cost, 1 + d.scanned + d.entries.size()) << u;
  }
  EXPECT_GT(non_empty, 10u) << "dataset produced almost no suggestions";
}

TEST_F(SuggestStandard, BitIdenticalAcrossSnapshotFormats) {
  const SnapshotView flat(v2().bytes());
  const SnapshotView compressed(v3().bytes());
  ASSERT_TRUE(compressed.adjacency_compressed());
  const RequestEngine want_engine(&flat);
  const RequestEngine v3_engine(&compressed);

  const auto path = std::filesystem::temp_directory_path() /
                    ("gplus_suggest_mmap_" + std::to_string(::getpid()) +
                     ".snap");
  save_snapshot(v3(), path);
  {
    MappedSnapshot mapped(path);
    const RequestEngine mmap_engine(&mapped.view());
    for (const Request& q : batch()) {
      Response want;
      Response from_v3;
      Response from_mmap;
      want_engine.execute(q, want);
      v3_engine.execute(q, from_v3);
      mmap_engine.execute(q, from_mmap);
      EXPECT_EQ(from_v3.status, want.status);
      EXPECT_EQ(from_v3.flags, want.flags);
      EXPECT_EQ(from_v3.cost, want.cost);
      ASSERT_EQ(from_v3.payload, want.payload)
          << "v3 diverged, user " << q.user;
      EXPECT_EQ(from_mmap.status, want.status);
      ASSERT_EQ(from_mmap.payload, want.payload)
          << "mmap diverged, user " << q.user;
    }
  }
  std::filesystem::remove(path);
}

TEST_F(SuggestStandard, DeadlinePartialsTruncateCleanly) {
  const RequestEngine engine(&view());
  // Pick a user with a real 2-hop neighborhood.
  graph::NodeId user = 0;
  Decoded full;
  Response full_response;
  for (graph::NodeId u = 0; u < kNodes; ++u) {
    engine.execute({.type = RequestType::kSuggest, .user = u, .limit = 50},
                   full_response);
    full = decode(full_response);
    if (full.entries.size() >= 5) {
      user = u;
      break;
    }
  }
  ASSERT_GE(full.entries.size(), 5u) << "no user with 5+ suggestions";

  bool saw_partial = false;
  for (std::uint32_t budget = 2; budget < 60; ++budget) {
    Response r;
    engine.execute({.type = RequestType::kSuggest,
                    .user = user,
                    .limit = 50,
                    .cost_budget = budget},
                   r);
    // The meter charges then reports exhaustion, so the final unit may
    // land one past the budget — never more.
    EXPECT_LE(r.cost, std::uint64_t{budget} + 1) << "spent past the budget";
    const Decoded d = decode(r);
    if (r.status == ServeStatus::kOk) {
      EXPECT_EQ(r.flags & kResponsePartial, 0);
      continue;
    }
    ASSERT_EQ(r.status, ServeStatus::kDeadlineExceeded) << budget;
    EXPECT_NE(r.flags & kResponsePartial, 0) << budget;
    saw_partial = true;
    // Whatever was emitted must be a prefix of the full ranking whenever
    // the candidate walk itself completed (found matches); a truncated
    // walk still emits well-formed, internally-ranked entries (decode
    // asserted the layout).
    if (d.found == full.found) {
      ASSERT_LE(d.entries.size(), full.entries.size());
      for (std::size_t i = 0; i < d.entries.size(); ++i) {
        EXPECT_EQ(d.entries[i].node, full.entries[i].node) << budget;
        EXPECT_EQ(d.entries[i].aa_micro, full.entries[i].aa_micro) << budget;
      }
    }
  }
  EXPECT_TRUE(saw_partial);
}

TEST_F(SuggestStandard, LimitAndErrorSemantics) {
  const RequestEngine engine(&view());
  Response r;
  // limit = 0 -> the engine cap (50).
  engine.execute({.type = RequestType::kSuggest, .user = 3}, r);
  ASSERT_EQ(r.status, ServeStatus::kOk);
  const Decoded d = decode(r);
  EXPECT_EQ(d.entries.size(),
            std::min<std::uint64_t>(engine.config().suggest_cap, d.found));
  // limit > cap -> invalid request.
  engine.execute(
      {.type = RequestType::kSuggest, .user = 3, .limit = 10'000}, r);
  EXPECT_EQ(r.status, ServeStatus::kInvalidRequest);
  // Out-of-range user -> invalid node.
  engine.execute({.type = RequestType::kSuggest,
                  .user = static_cast<graph::NodeId>(kNodes),
                  .limit = 5},
                 r);
  EXPECT_EQ(r.status, ServeStatus::kInvalidNode);
}

TEST_F(SuggestStandard, ResponsesAreCached) {
  ServerConfig config;
  QueryServer server(&view(), config);
  const Request q{.type = RequestType::kSuggest, .user = 42, .limit = 10};
  std::vector<Response> responses;
  ASSERT_EQ(server.submit(q), ServeStatus::kOk);
  server.drain(responses);
  ASSERT_EQ(responses.size(), 1u);
  const Response first = responses[0];
  const auto misses = server.stats_snapshot().cache.misses;
  ASSERT_EQ(server.submit(q), ServeStatus::kOk);
  server.drain(responses);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_GT(server.stats_snapshot().cache.hits, 0u);
  EXPECT_EQ(server.stats_snapshot().cache.misses, misses);
  EXPECT_EQ(responses[0].payload, first.payload);
  EXPECT_EQ(responses[0].status, first.status);
}

TEST_F(SuggestStandard, WorkloadChecksumLaneInvariant) {
  const auto run = [&] {
    ServerConfig config;
    QueryServer server(&view(), config);
    WorkloadConfig workload;
    workload.mix = WorkloadMix::suggest();
    workload.seed = 5;
    workload.clients = 32;
    workload.requests = 5'000;
    return run_closed_loop(server, workload);
  };
  core::set_thread_count(1);
  const auto serial = run();
  core::set_thread_count(0);
  const auto threaded = run();
  EXPECT_EQ(serial.checksum, threaded.checksum);
  EXPECT_EQ(serial.response_bytes, threaded.response_bytes);
  EXPECT_EQ(serial.served, threaded.served);
}

}  // namespace
}  // namespace gplus::serve
