#include "storm/storm.h"

namespace gplus::serve {

std::uint64_t fold_response(std::uint64_t h, const Response& r) noexcept {
  auto fold_byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  fold_byte(static_cast<std::uint8_t>(r.status));
  fold_byte(r.flags);
  const auto size = static_cast<std::uint32_t>(r.payload.size());
  for (std::size_t i = 0; i < 4; ++i) {
    fold_byte(static_cast<std::uint8_t>(size >> (8 * i)));
  }
  for (const std::uint8_t b : r.payload) fold_byte(b);
  return h;
}

Request storm_request(stats::Rng& rng, std::size_t n) {
  Request q;
  q.type = static_cast<RequestType>(rng.next_below(kRequestTypeCount));
  q.user = static_cast<graph::NodeId>(rng.next_below(n));
  q.priority = static_cast<Priority>(rng.next_below(kPriorityCount));
  switch (q.type) {
    case RequestType::kShortestPath:
      q.target = static_cast<graph::NodeId>(rng.next_below(n));
      break;
    case RequestType::kGetOutCircle:
    case RequestType::kGetInCircle:
      q.limit = 50;
      break;
    case RequestType::kTopK:
      q.limit = 10;
      break;
    case RequestType::kSuggest:
      q.limit = 8;
      break;
    default:
      break;
  }
  if (rng.next_double() < 0.02) {
    q.user = static_cast<graph::NodeId>(n + rng.next_below(8));
  }
  return q;
}

namespace {

// One closed-loop storm client: an independent rng stream plus the
// request it keeps in flight (retried as-is after rejection).
struct StormClient {
  stats::Rng rng{0};
  Request in_flight;
  bool retrying = false;
};

}  // namespace

StormReport run_chaos_storm(const SnapshotBuffer& primary,
                            const SnapshotBuffer& candidate,
                            const StormConfig& config) {
  StormReport report;
  ChaosConfig chaos = config.chaos;
  if (chaos.seed == 0) chaos.seed = config.seed ^ 0x5DEECE66DULL;
  ResilientServer resilient(config.server, chaos);

  const InstallReport first = resilient.install(SnapshotBuffer(primary));
  if (!first.installed) {
    report.violations.push_back("primary install failed: " + first.error);
    return report;
  }
  const std::size_t n = resilient.server().engine()->snapshot().node_count();

  std::vector<StormClient> clients(std::max<std::size_t>(1, config.clients));
  for (std::size_t c = 0; c < clients.size(); ++c) {
    std::uint64_t state = config.seed + 0x9E3779B97F4A7C15ULL * (c + 1);
    clients[c].rng = stats::Rng(stats::splitmix64_next(state));
  }

  // The storm script, fixed relative to the round count.
  const std::uint64_t r_doomed = config.rounds / 4;
  const std::uint64_t r_swap = config.rounds / 2;
  const std::uint64_t r_kill = config.rounds * 5 / 8;
  const std::uint64_t r_rollback = config.rounds * 3 / 4;

  std::vector<Response> responses;
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  for (std::uint64_t round = 0; round < config.rounds; ++round) {
    if (round == r_doomed) {
      const InstallReport doomed =
          resilient.install(SnapshotBuffer(candidate),
                            /*force_canary_failure=*/true);
      report.forced_rollback_fired = doomed.rolled_back;
      if (!doomed.rolled_back) {
        report.violations.push_back("forced-canary install did not roll back");
      } else if (doomed.epoch != first.epoch) {
        report.violations.push_back("rollback restored the wrong epoch");
      }
    }
    if (round == r_swap) {
      const InstallReport swap = resilient.install(SnapshotBuffer(candidate));
      if (!swap.installed) {
        report.violations.push_back("hot-swap install failed: " + swap.error);
      }
    }
    if (round == r_kill) resilient.kill_active();
    if (round == r_rollback && !resilient.rollback()) {
      report.violations.push_back("rollback after kill failed");
    }

    for (StormClient& client : clients) {
      if (!client.retrying) client.in_flight = storm_request(client.rng, n);
      ++report.offered;
      if (resilient.submit(client.in_flight) == ServeStatus::kRejected) {
        client.retrying = true;
        ++report.rejected;
      } else {
        client.retrying = false;
        ++report.accepted;
      }
    }
    resilient.drain(responses);
    report.responses += responses.size();
    for (const Response& r : responses) {
      ++report.by_status[static_cast<std::size_t>(r.status) %
                         kServeStatusCount];
      checksum = fold_response(checksum, r);
    }
  }
  report.checksum = checksum;
  report.final_epoch = resilient.epoch();
  report.server = resilient.stats_snapshot();

  // Invariants: exactly one terminal status per admission, no silent
  // drops, and server counters agreeing with the observed stream.
  if (resilient.queued() != 0) {
    report.violations.push_back("queue not empty after the final drain");
  }
  if (report.responses != report.accepted) {
    report.violations.push_back(
        "terminal responses != admissions (dropped or duplicated request)");
  }
  if (report.offered != report.accepted + report.rejected) {
    report.violations.push_back("offered != accepted + rejected");
  }
  if (report.server.accepted != report.accepted ||
      report.server.rejected != report.rejected ||
      report.server.served != report.responses) {
    report.violations.push_back("server counters disagree with the stream");
  }

  // Storm-free equivalence: the worn server must answer a fixed probe set
  // byte-identically to a fresh server over the same final generation.
  if (!resilient.degraded() && config.probes > 0) {
    resilient.server().set_queue_pressure(0);
    const std::size_t n_final =
        resilient.server().engine()->snapshot().node_count();
    std::uint64_t probe_seed_state = config.seed ^ 0xA0761D6478BD642FULL;
    const std::uint64_t probe_seed = stats::splitmix64_next(probe_seed_state);
    report.post_probe_checksum = run_probe_stream(
        resilient.server(), probe_seed, config.probes, n_final);
    QueryServer fresh(resilient.manager().active(), config.server);
    report.fresh_probe_checksum =
        run_probe_stream(fresh, probe_seed, config.probes, n_final);
    if (report.post_probe_checksum != report.fresh_probe_checksum) {
      report.violations.push_back(
          "storm-worn server diverged from a fresh server on the probe set");
    }
  }
  return report;
}

namespace {

void expect(std::vector<std::string>& violations, bool ok,
            const std::string& what) {
  if (!ok) violations.push_back(what);
}

}  // namespace

ClusterStormReport run_cluster_storm(const ShardedSnapshot& sharded,
                                     const SnapshotView& full,
                                     const ClusterStormConfig& config) {
  ClusterStormReport report;
  const std::size_t shards = sharded.shards.size();
  std::vector<SnapshotView> views;
  views.reserve(shards);
  for (const SnapshotBuffer& shard : sharded.shards) {
    views.emplace_back(shard.bytes());
  }
  std::vector<const SnapshotView*> view_ptrs;
  view_ptrs.reserve(shards);
  for (const SnapshotView& view : views) view_ptrs.push_back(&view);

  ClusterConfig cc;
  cc.server = config.server;
  cc.replicas = config.replicas;
  cc.transport = config.transport;
  ClusterServer cluster(&sharded.routing, view_ptrs, cc);
  const ChaosSchedule chaos(config.chaos);
  const std::size_t n = cluster.node_count();

  // Scripted shard events: replica-0 kills (failover window) at R/4, one
  // shard fully dark at R/2, dark shard back at 5R/8, everything back at
  // 3R/4 — chaos faults/slowdowns/pressure run throughout. With the
  // transport enabled, a network brownout (drop 0.9) runs over
  // [R/8, R/4): heavy enough to open breakers, exhaust retries and force
  // quorum-partial gathers, lifted exactly when the replica-0 kills land.
  const std::uint64_t kill_primaries = config.rounds / 4;
  const std::uint64_t kill_dark = config.rounds / 2;
  const std::uint64_t recover_dark = config.rounds * 5 / 8;
  const std::uint64_t recover_all = config.rounds * 3 / 4;
  const std::uint64_t brownout_start = config.rounds / 8;
  const std::size_t dark_shard = 1 % shards;

  stats::Rng rng(config.seed);
  std::vector<Response> responses;
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  std::uint64_t seq = 0;

  for (std::uint64_t round = 0; round < config.rounds; ++round) {
    if (config.transport.enabled && round == brownout_start) {
      FaultProfile heavy = config.transport.profile;
      heavy.drop_rate = 0.9;
      cluster.set_transport_profile(heavy);
    }
    if (config.transport.enabled && round == kill_primaries) {
      cluster.set_transport_profile(config.transport.profile);
    }
    if (round == kill_primaries && config.replicas >= 2) {
      for (std::size_t s = 0; s < shards; ++s) cluster.kill_replica(s, 0);
    }
    if (round == kill_dark) {
      for (std::size_t r = 0; r < config.replicas; ++r) {
        cluster.kill_replica(dark_shard, r);
      }
    }
    if (round == recover_dark) {
      // Replica 0 stays in its failover window (when there is one).
      const std::size_t first = config.replicas >= 2 ? 1 : 0;
      for (std::size_t r = first; r < config.replicas; ++r) {
        cluster.recover_replica(dark_shard, r);
      }
    }
    if (round == recover_all) {
      for (std::size_t s = 0; s < shards; ++s) {
        for (std::size_t r = 0; r < config.replicas; ++r) {
          cluster.recover_replica(s, r);
        }
      }
    }
    cluster.set_queue_pressure(chaos.pressure(round));
    for (std::size_t c = 0; c < config.clients; ++c) {
      Request q = storm_request(rng, n);
      const ChaosSchedule::RequestEvents events = chaos.request_events(seq++);
      if (events.slow) q.cost_budget = chaos.config().slow_budget;
      ++report.offered;
      if (cluster.submit(q, events.fault) == ServeStatus::kRejected) {
        ++report.rejected;
      } else {
        ++report.accepted;
      }
    }
    cluster.drain(responses);
    report.responses += responses.size();
    for (const Response& r : responses) {
      ++report.by_status[static_cast<std::size_t>(r.status) %
                         kServeStatusCount];
      if ((r.flags & kResponseShardDark) != 0) ++report.dark_answers;
      if ((r.flags & kResponseQuorumPartial) != 0) ++report.quorum_answers;
      checksum = fold_response(checksum, r);
    }
    expect(report.violations, cluster.queued() == 0,
           "queue not empty after drain");
  }
  report.checksum = checksum;

  report.cluster = cluster.stats_snapshot();
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t r = 0; r < config.replicas; ++r) {
      report.replica_stats.push_back(cluster.replica_stats(s, r));
    }
  }
  report.transport = cluster.transport_stats();

  // Core storm invariants: every admitted request reached exactly one
  // terminal status; nothing dropped silently.
  expect(report.violations, report.offered == report.accepted + report.rejected,
         "offered != accepted + rejected");
  expect(report.violations, report.responses == report.accepted,
         "responses != accepted (silent drop or duplicate)");
  std::uint64_t by_status_total = 0;
  for (const std::uint64_t v : report.by_status) by_status_total += v;
  expect(report.violations, by_status_total == report.responses,
         "per-status totals != responses");
  if (config.rounds >= 16 && config.replicas >= 1) {
    expect(report.violations, report.dark_answers > 0,
           "dark window produced no kShardDark answers");
  }
  if (config.transport.enabled && config.rounds >= 32) {
    expect(report.violations, report.quorum_answers > 0,
           "transport brownout produced no quorum-partial answers");
    expect(report.violations, report.transport.breaker_open > 0,
           "transport brownout opened no breakers");
    expect(report.violations, report.transport.breaker_close > 0,
           "no breaker recovered (half-open probe never closed one)");
  }

  // Post-storm probes: fully recovered cluster vs a fresh unsharded
  // server — every request family must answer identically. A healed
  // zero-rate transport delivers every message first try to the lowest
  // live replica, so transport-routed probe answers match the unsharded
  // engine byte for byte.
  if (config.probes > 0) {
    for (std::size_t s = 0; s < shards; ++s) {
      for (std::size_t r = 0; r < config.replicas; ++r) {
        cluster.recover_replica(s, r);
      }
    }
    cluster.heal_transport();
    cluster.set_queue_pressure(0);
    const std::uint64_t probe_seed = config.seed ^ 0x9E3779B97F4A7C15ULL;
    report.post_probe_checksum =
        run_probe_stream(cluster, probe_seed, config.probes, n);
    QueryServer fresh(&full, config.server);
    report.unsharded_probe_checksum =
        run_probe_stream(fresh, probe_seed, config.probes, n);
    expect(report.violations,
           report.post_probe_checksum == report.unsharded_probe_checksum,
           "cluster probe answers diverged from the unsharded engine");
  }
  return report;
}

}  // namespace gplus::serve
