// Deterministic transport fault layer (serve/transport.h, DESIGN.md §15):
// seeded schedule purity, timeout -> retry -> hedge escalation, circuit
// breaker transitions, quorum-partial degradation pinned byte-for-byte
// against dark-shard degradation, duplicate/reorder absorption, and the
// transport-enabled cluster storm (registry reconciliation + 1-vs-N
// thread bit-identity). Runs under the .threads1 CTest variant too.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "core/dataset.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "serve/cluster.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"
#include "serve/transport.h"

namespace gplus::serve {
namespace {

constexpr std::size_t kNodes = 2000;

const core::Dataset& dataset() {
  static const core::Dataset instance = core::make_standard_dataset(kNodes, 29);
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

std::vector<const SnapshotView*> open_shards(std::vector<SnapshotView>& store) {
  store.clear();
  store.reserve(sharded4().shards.size());
  for (const auto& shard : sharded4().shards) store.emplace_back(shard.bytes());
  std::vector<const SnapshotView*> ptrs;
  for (const auto& view : store) ptrs.push_back(&view);
  return ptrs;
}

// A deterministic mixed request stream covering every family.
std::vector<Request> mixed_requests(std::size_t count) {
  std::vector<Request> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Request q;
    q.type = static_cast<RequestType>(i % kRequestTypeCount);
    q.user = static_cast<graph::NodeId>((i * 37) % kNodes);
    q.target = static_cast<graph::NodeId>((i * 101 + 13) % kNodes);
    if (q.type == RequestType::kTopK) q.limit = 10;
    if (q.type == RequestType::kSuggest) q.limit = 8;
    if (q.type == RequestType::kGetOutCircle ||
        q.type == RequestType::kGetInCircle) {
      q.limit = 50;
    }
    out.push_back(q);
  }
  return out;
}

std::vector<Response> run_batches(ClusterServer& cluster,
                                  const std::vector<Request>& requests) {
  std::vector<Response> all;
  std::vector<Response> batch;
  std::size_t i = 0;
  while (i < requests.size()) {
    const std::size_t take =
        std::min(cluster.queue_capacity(), requests.size() - i);
    for (std::size_t j = 0; j < take; ++j) {
      EXPECT_NE(cluster.submit(requests[i + j]), ServeStatus::kRejected);
    }
    cluster.drain(batch);
    for (Response& r : batch) all.push_back(std::move(r));
    i += take;
  }
  return all;
}

bool same_responses(const std::vector<Response>& a,
                    const std::vector<Response>& b, bool compare_flags) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].status != b[i].status) return false;
    if (compare_flags && a[i].flags != b[i].flags) return false;
    if (a[i].payload != b[i].payload) return false;
  }
  return true;
}

TEST(FaultyTransport, ScheduleIsPureAndSeeded) {
  TransportConfig cfg;
  cfg.enabled = true;
  cfg.seed = 42;
  cfg.profile.drop_rate = 0.3;
  cfg.profile.delay_rate = 0.4;
  cfg.profile.duplicate_rate = 0.2;

  const std::vector<std::uint8_t> up{1, 1};
  FaultyTransport a(cfg, 1, 2);
  FaultyTransport b(cfg, 1, 2);
  a.freeze(up.data());
  b.freeze(up.data());
  bool any_fault = false;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    const std::uint64_t key = FaultyTransport::rpc_key(seq, 3, 0);
    const RpcOutcome oa = a.probe_shard(key, 0);
    const RpcOutcome ob = b.probe_shard(key, 0);
    EXPECT_EQ(oa.ok, ob.ok) << seq;
    EXPECT_EQ(oa.attempts, ob.attempts) << seq;
    EXPECT_EQ(oa.dropped, ob.dropped) << seq;
    EXPECT_EQ(oa.ticks, ob.ticks) << seq;
    if (oa.dropped > 0 || oa.delayed > 0) any_fault = true;
    // Same probe, same answer — pure in (seed, key, frozen targets).
    const RpcOutcome again = a.probe_shard(key, 0);
    EXPECT_EQ(again.ok, oa.ok) << seq;
    EXPECT_EQ(again.ticks, oa.ticks) << seq;
  }
  EXPECT_TRUE(any_fault) << "profile with 0.3 drop rolled no faults in 200";

  // A different seed yields a different schedule somewhere.
  TransportConfig other = cfg;
  other.seed = 43;
  FaultyTransport c(other, 1, 2);
  c.freeze(up.data());
  bool diverged = false;
  for (std::uint64_t seq = 0; seq < 200 && !diverged; ++seq) {
    const std::uint64_t key = FaultyTransport::rpc_key(seq, 3, 0);
    const RpcOutcome oa = a.probe_shard(key, 0);
    const RpcOutcome oc = c.probe_shard(key, 0);
    diverged = oa.ticks != oc.ticks || oa.dropped != oc.dropped;
  }
  EXPECT_TRUE(diverged) << "seed 42 and 43 rolled identical schedules";
}

TEST(FaultyTransport, RejectsUnusableKnobs) {
  const std::vector<std::uint8_t> up{1};
  TransportConfig cfg;
  cfg.enabled = true;
  cfg.timeout_ticks = 0;
  EXPECT_THROW(FaultyTransport(cfg, 1, 1), std::invalid_argument);
  cfg.timeout_ticks = 24;
  cfg.profile.drop_rate = 1.5;
  EXPECT_THROW(FaultyTransport(cfg, 1, 1), std::invalid_argument);
  cfg.profile.drop_rate = 0.0;
  cfg.profile.delay_min = 10;
  cfg.profile.delay_max = 4;
  EXPECT_THROW(FaultyTransport(cfg, 1, 1), std::invalid_argument);
  // Disabled transports skip validation entirely (never consulted).
  cfg.enabled = false;
  EXPECT_NO_THROW(FaultyTransport(cfg, 1, 1));
}

TEST(TransportCluster, DisabledAndZeroRateAreByteIdentical) {
  std::vector<SnapshotView> store_a;
  std::vector<SnapshotView> store_b;
  const auto requests = mixed_requests(300);

  ClusterConfig plain;
  plain.replicas = 2;
  ClusterServer off(&sharded4().routing, open_shards(store_a), plain);
  const auto base = run_batches(off, requests);
  // Disabled transport: not a single transport counter moves.
  const TransportStats& off_stats = off.transport_stats();
  EXPECT_EQ(off_stats.rpcs, 0u);
  EXPECT_EQ(off_stats.attempts, 0u);
  EXPECT_EQ(off_stats.ticks, 0u);

  ClusterConfig wired = plain;
  wired.transport.enabled = true;
  wired.transport.seed = 7;  // zero-rate profile: a perfect network
  ClusterServer on(&sharded4().routing, open_shards(store_b), wired);
  const auto routed = run_batches(on, requests);

  EXPECT_TRUE(same_responses(base, routed, /*compare_flags=*/true))
      << "a zero-rate transport changed response bytes";
  const TransportStats& on_stats = on.transport_stats();
  EXPECT_GT(on_stats.rpcs, 0u);
  EXPECT_EQ(on_stats.delivered, on_stats.rpcs);
  EXPECT_EQ(on_stats.failed, 0u);
  EXPECT_EQ(on_stats.dropped, 0u);
}

TEST(TransportCluster, DropStormFailsClosedNeverHangs) {
  std::vector<SnapshotView> store;
  ClusterConfig config;
  config.replicas = 2;
  config.transport.enabled = true;
  config.transport.seed = 5;
  config.transport.profile.drop_rate = 1.0;
  config.transport.breaker_threshold = 4;
  ClusterServer cluster(&sharded4().routing, open_shards(store), config);

  const auto requests = mixed_requests(240);
  const auto responses = run_batches(cluster, requests);
  ASSERT_EQ(responses.size(), requests.size());

  std::size_t unavailable = 0;
  std::size_t quorum = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const Response& r = responses[i];
    // Every request reached a terminal status; degraded answers are
    // explicitly flagged — never a hang, never a silent drop.
    if (r.status == ServeStatus::kUnavailable) {
      ++unavailable;
      EXPECT_NE(r.flags & kResponseQuorumPartial, 0) << i;
    }
    if ((r.flags & kResponseQuorumPartial) != 0) ++quorum;
  }
  EXPECT_GT(unavailable, 0u);
  EXPECT_GT(quorum, unavailable) << "no scatter answer degraded to quorum";

  const TransportStats& t = cluster.transport_stats();
  EXPECT_EQ(t.delivered, 0u);
  EXPECT_GT(t.failed, 0u);
  EXPECT_GT(t.timeouts, 0u);
  EXPECT_GT(t.breaker_open, 0u);
  EXPECT_GT(t.breaker_skips, 0u) << "open breakers never skipped a send";
}

TEST(FaultyTransport, TimeoutRetryHedgeEscalation) {
  const std::vector<std::uint8_t> up{1, 1};

  // Regime 1 — short fixed delay: the primary answers before the hedge
  // trigger; one attempt, no hedge, ticks = 1 + delay.
  TransportConfig fast;
  fast.enabled = true;
  fast.profile.delay_rate = 1.0;
  fast.profile.delay_min = 4;
  fast.profile.delay_max = 4;
  fast.timeout_ticks = 24;
  fast.hedge_ticks = 8;
  FaultyTransport quick(fast, 1, 2);
  const RpcOutcome o1 = quick.dispatch(FaultyTransport::rpc_key(0, 0, 0), 0,
                                       up.data());
  EXPECT_TRUE(o1.ok);
  EXPECT_EQ(o1.attempts, 1u);
  EXPECT_EQ(o1.hedges, 0u);
  EXPECT_EQ(o1.ticks, 5u);
  EXPECT_EQ(o1.replica(), 0u);

  // Regime 2 — slow primary: the hedge fires but the primary still wins
  // (fixed equal delays put the hedge hedge_ticks behind); one attempt,
  // one hedge, ticks = 1 + delay.
  TransportConfig slow = fast;
  slow.profile.delay_min = 12;
  slow.profile.delay_max = 12;
  FaultyTransport hedged(slow, 1, 2);
  const RpcOutcome o2 = hedged.dispatch(FaultyTransport::rpc_key(0, 0, 0), 0,
                                        up.data());
  EXPECT_TRUE(o2.ok);
  EXPECT_EQ(o2.attempts, 2u);
  EXPECT_EQ(o2.hedges, 1u);
  EXPECT_FALSE(o2.hedge_won);
  EXPECT_EQ(o2.ticks, 13u);

  // Regime 3 — sick primary replica: only_replica pins the loss to
  // replica 0, so every primary send drops and the hedge to replica 1
  // completes at hedge_ticks + 1. Organic failover via hedging.
  TransportConfig sick;
  sick.enabled = true;
  sick.profile.drop_rate = 1.0;
  sick.profile.only_replica = 0;
  sick.timeout_ticks = 24;
  sick.hedge_ticks = 8;
  FaultyTransport failover(sick, 1, 2);
  const RpcOutcome o3 = failover.dispatch(FaultyTransport::rpc_key(0, 0, 0), 0,
                                          up.data());
  EXPECT_TRUE(o3.ok);
  EXPECT_TRUE(o3.hedge_won);
  EXPECT_EQ(o3.replica(), 1u);
  EXPECT_EQ(o3.dropped, 1u);
  EXPECT_EQ(o3.ticks, 9u);

  // Regime 4 — delay beyond the timeout with hedging off: every attempt
  // burns the full timeout; 1 + max_retries attempts, then failure.
  TransportConfig dead;
  dead.enabled = true;
  dead.profile.delay_rate = 1.0;
  dead.profile.delay_min = 40;
  dead.profile.delay_max = 40;
  dead.timeout_ticks = 24;
  dead.max_retries = 2;
  dead.hedge_ticks = 0;
  dead.breaker_threshold = 0;
  FaultyTransport exhausted(dead, 1, 2);
  const RpcOutcome o4 = exhausted.dispatch(FaultyTransport::rpc_key(0, 0, 0),
                                           0, up.data());
  EXPECT_FALSE(o4.ok);
  EXPECT_EQ(o4.attempts, 3u);
  EXPECT_EQ(o4.retries, 2u);
  EXPECT_EQ(o4.timeouts, 3u);
  EXPECT_EQ(o4.ticks, 3u * 24u);
  const TransportStats& t = exhausted.stats();
  EXPECT_EQ(t.failed, 1u);
  EXPECT_EQ(t.delivered, 0u);
}

TEST(FaultyTransport, BreakerOpensHalfOpensCloses) {
  const std::vector<std::uint8_t> up{1};
  TransportConfig cfg;
  cfg.enabled = true;
  cfg.profile.drop_rate = 1.0;
  cfg.timeout_ticks = 4;
  cfg.max_retries = 0;
  cfg.hedge_ticks = 0;
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown = 3;
  FaultyTransport t(cfg, 1, 1);

  // Two consecutive failures trip the breaker.
  EXPECT_FALSE(t.dispatch(FaultyTransport::rpc_key(0, 0, 0), 0, up.data()).ok);
  EXPECT_EQ(t.breaker_state(0, 0), BreakerState::kClosed);
  EXPECT_FALSE(t.dispatch(FaultyTransport::rpc_key(1, 0, 0), 0, up.data()).ok);
  EXPECT_EQ(t.breaker_state(0, 0), BreakerState::kOpen);
  EXPECT_EQ(t.stats().breaker_open, 1u);

  // Open: sends are skipped, results for the replica ignored.
  const RpcOutcome skipped =
      t.dispatch(FaultyTransport::rpc_key(2, 0, 0), 0, up.data());
  EXPECT_TRUE(skipped.no_target);
  EXPECT_EQ(t.stats().breaker_skips, 1u);

  // The network recovers; the cooldown drains one tick per drain.
  t.set_profile(FaultProfile{});
  t.tick();
  t.tick();
  EXPECT_EQ(t.breaker_state(0, 0), BreakerState::kOpen);
  t.tick();
  EXPECT_EQ(t.breaker_state(0, 0), BreakerState::kHalfOpen);

  // One successful probe closes it again.
  const RpcOutcome probe =
      t.dispatch(FaultyTransport::rpc_key(3, 0, 0), 0, up.data());
  EXPECT_TRUE(probe.ok);
  EXPECT_TRUE(probe.probe);
  EXPECT_EQ(t.breaker_state(0, 0), BreakerState::kClosed);
  EXPECT_EQ(t.stats().breaker_probes, 1u);
  EXPECT_EQ(t.stats().breaker_close, 1u);

  // A failed probe would have re-opened instead: trip it again, half-open
  // it, and probe into a lossy network.
  t.set_profile(FaultProfile{.drop_rate = 1.0});
  EXPECT_FALSE(t.dispatch(FaultyTransport::rpc_key(4, 0, 0), 0, up.data()).ok);
  EXPECT_FALSE(t.dispatch(FaultyTransport::rpc_key(5, 0, 0), 0, up.data()).ok);
  EXPECT_EQ(t.breaker_state(0, 0), BreakerState::kOpen);
  t.tick();
  t.tick();
  t.tick();
  EXPECT_EQ(t.breaker_state(0, 0), BreakerState::kHalfOpen);
  EXPECT_FALSE(t.dispatch(FaultyTransport::rpc_key(6, 0, 0), 0, up.data()).ok);
  EXPECT_EQ(t.breaker_state(0, 0), BreakerState::kOpen);
  EXPECT_EQ(t.stats().breaker_open, 3u);
}

TEST(TransportCluster, QuorumPartialPayloadPinnedAgainstDarkShard) {
  // Shard 2 unreachable over the transport vs shard 2 dark: the degraded
  // payload bytes must be IDENTICAL — only the flag bits differ (quorum
  // vs dark), because both degrade by excluding the same shard.
  constexpr std::size_t kSick = 2;
  std::vector<SnapshotView> store_a;
  std::vector<SnapshotView> store_b;
  const auto requests = mixed_requests(300);

  ClusterConfig lossy;
  lossy.replicas = 1;
  lossy.transport.enabled = true;
  lossy.transport.seed = 11;
  lossy.transport.profile.drop_rate = 1.0;
  lossy.transport.profile.only_shard = kSick;
  lossy.transport.breaker_threshold = 0;  // pure loss, no breaker rerouting
  ClusterServer unreachable(&sharded4().routing, open_shards(store_a), lossy);
  const auto degraded = run_batches(unreachable, requests);

  ClusterConfig plain;
  plain.replicas = 1;
  ClusterServer darkened(&sharded4().routing, open_shards(store_b), plain);
  darkened.kill_replica(kSick, 0);
  const auto dark = run_batches(darkened, requests);

  ASSERT_TRUE(same_responses(degraded, dark, /*compare_flags=*/false))
      << "quorum degradation and dark degradation diverged in payload";
  bool flagged = false;
  for (std::size_t i = 0; i < degraded.size(); ++i) {
    const std::uint8_t qflags = degraded[i].flags;
    const std::uint8_t dflags = dark[i].flags;
    EXPECT_EQ(qflags & kResponsePartial, dflags & kResponsePartial) << i;
    if ((dflags & kResponseShardDark) != 0) {
      flagged = true;
      EXPECT_NE(qflags & kResponseQuorumPartial, 0) << i;
      EXPECT_EQ(qflags & kResponseShardDark, 0) << i;
    } else {
      EXPECT_EQ(qflags & kResponseQuorumPartial, 0) << i;
    }
  }
  EXPECT_TRUE(flagged) << "no request ever touched the sick shard";
}

TEST(TransportCluster, ReorderAndDuplicatesAreAbsorbed) {
  std::vector<SnapshotView> store_a;
  std::vector<SnapshotView> store_b;
  const auto requests = mixed_requests(300);

  ClusterConfig plain;
  plain.replicas = 2;
  ClusterServer off(&sharded4().routing, open_shards(store_a), plain);
  const auto base = run_batches(off, requests);

  ClusterConfig noisy = plain;
  noisy.transport.enabled = true;
  noisy.transport.seed = 23;
  noisy.transport.profile.duplicate_rate = 1.0;
  noisy.transport.profile.reorder_rate = 1.0;
  ClusterServer on(&sharded4().routing, open_shards(store_b), noisy);
  const auto routed = run_batches(on, requests);

  EXPECT_TRUE(same_responses(base, routed, /*compare_flags=*/true))
      << "duplicates or reordering leaked into response bytes";
  const TransportStats& t = on.transport_stats();
  EXPECT_GT(t.duplicates, 0u);
  EXPECT_EQ(t.dup_suppressed, t.duplicates)
      << "the receiver must discard every duplicate";
  EXPECT_GT(t.reorders, 0u) << "reorder_rate 1.0 never reversed a batch";
  EXPECT_EQ(t.failed, 0u);
}

ClusterStormConfig storm_config() {
  ClusterStormConfig config;
  config.seed = 99;
  config.clients = 48;
  config.rounds = 96;
  config.probes = 192;
  config.replicas = 2;
  config.transport.enabled = true;
  config.transport.seed = 7;
  config.transport.profile.drop_rate = 0.03;
  config.transport.profile.delay_rate = 0.10;
  config.transport.profile.delay_min = 4;
  config.transport.profile.delay_max = 40;
  config.transport.profile.duplicate_rate = 0.02;
  config.transport.profile.reorder_rate = 0.05;
  return config;
}

TEST(TransportStorm, ReconcilesRegistryAndDegradesExplicitly) {
  const ClusterStormReport report =
      run_cluster_storm(sharded4(), full_view(), storm_config());
  EXPECT_TRUE(report.violations.empty())
      << "first violation: " << report.violations.front();
  EXPECT_EQ(report.offered, report.accepted + report.rejected);
  EXPECT_EQ(report.responses, report.accepted);
  EXPECT_GT(report.quorum_answers, 0u);
  EXPECT_GT(report.dark_answers, 0u);
  EXPECT_GT(report.transport.rpcs, 0u);
  EXPECT_GT(report.transport.breaker_open, 0u);
  EXPECT_GT(report.transport.breaker_close, 0u);
  EXPECT_GT(report.transport.hedges, 0u);
  EXPECT_EQ(report.post_probe_checksum, report.unsharded_probe_checksum);
}

TEST(TransportStorm, BitIdenticalAtOneThreadAndMany) {
  const ClusterStormConfig config = storm_config();
  const ClusterStormReport many =
      run_cluster_storm(sharded4(), full_view(), config);
  core::set_thread_count(1);
  const ClusterStormReport one =
      run_cluster_storm(sharded4(), full_view(), config);
  core::set_thread_count(0);

  EXPECT_EQ(many.checksum, one.checksum);
  EXPECT_EQ(many.quorum_answers, one.quorum_answers);
  EXPECT_EQ(many.dark_answers, one.dark_answers);
  EXPECT_EQ(many.by_status, one.by_status);
  EXPECT_EQ(many.transport.rpcs, one.transport.rpcs);
  EXPECT_EQ(many.transport.attempts, one.transport.attempts);
  EXPECT_EQ(many.transport.delivered, one.transport.delivered);
  EXPECT_EQ(many.transport.failed, one.transport.failed);
  EXPECT_EQ(many.transport.timeouts, one.transport.timeouts);
  EXPECT_EQ(many.transport.retries, one.transport.retries);
  EXPECT_EQ(many.transport.hedges, one.transport.hedges);
  EXPECT_EQ(many.transport.hedge_wins, one.transport.hedge_wins);
  EXPECT_EQ(many.transport.duplicates, one.transport.duplicates);
  EXPECT_EQ(many.transport.reorders, one.transport.reorders);
  EXPECT_EQ(many.transport.breaker_open, one.transport.breaker_open);
  EXPECT_EQ(many.transport.breaker_close, one.transport.breaker_close);
  EXPECT_EQ(many.transport.breaker_skips, one.transport.breaker_skips);
  EXPECT_EQ(many.transport.ticks, one.transport.ticks);
  EXPECT_EQ(many.post_probe_checksum, one.post_probe_checksum);
  EXPECT_TRUE(many.violations.empty() && one.violations.empty());
}

// Golden pin of the lossy cluster's whole schedule. Lane identity and
// healed probes cannot see a change in WHEN the router contacts a shard
// (e.g. ShortestPath probing every shard up front instead of once per
// shard per BFS level on first touch): answers may stay identical while
// the rpc stream, ticks and breaker history move. These figures pin the
// probe schedule — Suggest/TopK one rpc per live shard up front,
// ShortestPath lazily per (level, shard) — and the rpc commit order.
TEST(TransportStorm, LossyScheduleIsPinned) {
  const ClusterStormReport report =
      run_cluster_storm(sharded4(), full_view(), storm_config());
  ASSERT_TRUE(report.violations.empty())
      << "first violation: " << report.violations.front();
  EXPECT_EQ(report.checksum, 0xcff54dece7cedee3ULL);
  using Counts = std::array<std::uint64_t, kServeStatusCount>;
  EXPECT_EQ(report.by_status, (Counts{4092, 82, 0, 0, 0, 0, 0, 434, 0}));
  EXPECT_EQ(report.cluster.messages, 6815u);
  const TransportStats& t = report.transport;
  EXPECT_EQ(t.rpcs, 8293u);
  EXPECT_EQ(t.attempts, 9297u);
  EXPECT_EQ(t.delivered, 8244u);
  EXPECT_EQ(t.failed, 49u);
  EXPECT_EQ(t.dropped, 530u);
  EXPECT_EQ(t.delayed, 852u);
  EXPECT_EQ(t.timeouts, 547u);
  EXPECT_EQ(t.retries, 498u);
  EXPECT_EQ(t.hedges, 506u);
  EXPECT_EQ(t.hedge_wins, 367u);
  EXPECT_EQ(t.duplicates, 174u);
  EXPECT_EQ(t.dup_suppressed, 174u);
  EXPECT_EQ(t.reorders, 10u);
  EXPECT_EQ(t.breaker_open, 16u);
  EXPECT_EQ(t.breaker_close, 9u);
  EXPECT_EQ(t.breaker_probes, 14u);
  EXPECT_EQ(t.breaker_skips, 879u);
  EXPECT_EQ(t.ticks, 28474u);
}

}  // namespace
}  // namespace gplus::serve
