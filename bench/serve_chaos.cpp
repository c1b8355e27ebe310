// Seeded kill/swap/overload storm against the resilient serving stack.
//
// The storm script (bench/storm/storm.h): serve snapshot A under
// injected engine faults, forced slowdown deadlines and queue pressure;
// attempt a doomed install of snapshot B (forced canary failure → must
// roll back to A); hot-swap to B for real; kill the active snapshot (a
// degraded stretch served from the stale cache); roll back; keep serving.
//
// Storm traffic, probe streams and the canary cover every request family
// — including the 2-hop kSuggest scatter path — so a regression in any
// handler trips the checksum or registry reconciliation below.
//
// The run *asserts* the resilience invariants rather than just printing
// numbers — this binary exits nonzero when any is violated:
//   1. every admitted request reaches exactly one terminal status, and
//      offered == accepted + rejected (no silent drops);
//   2. the storm-worn server answers a fixed probe set byte-identically
//      to a fresh server over the same final generation (post-storm state
//      equals a storm-free run's);
//   3. the whole storm — response stream, counters, cache state — is
//      bit-identical between GPLUS_THREADS=1 and GPLUS_THREADS=N.
//
// `--shards K` additionally runs the sharded-cluster storm
// (bench/storm/storm.h): K shards × 2 replicas under scripted replica
// kills, a fully-dark shard window, recovery, and the same chaos
// channels — asserting one terminal status per request, zero silent
// drops, and byte-identical state (including the deterministic metrics
// JSON) at 1 vs N lanes.
//
// `--transport` additionally runs the cluster storm over a seeded faulty
// transport (drops, delays, duplicates, reordering between router and
// replicas): timeouts, capped retries, hedged sends, circuit breakers and
// quorum-degraded answers all fire, and the same invariants must still
// hold — every accepted request one terminal status, the whole storm
// (serve.transport.* registry deltas included) byte-identical at 1 vs N
// lanes.
//
// `--smoke` shrinks the dataset and round count for the CI matrix. Every
// run writes a machine-readable report (default BENCH_chaos.json,
// override with GPLUS_BENCH_CHAOS_JSON).
// Scale with GPLUS_SCALE / GPLUS_SEED / GPLUS_ROUNDS.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_common.h"
#include "core/parallel.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/cluster.h"
#include "serve/resilience.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"
#include "storm/storm.h"

namespace {

using namespace gplus;

void print_report(const char* label, const serve::StormReport& report) {
  std::printf(
      "%-10s offered %llu  accepted %llu  rejected %llu  responses %llu  "
      "checksum %016llx  epoch %llu\n",
      label, static_cast<unsigned long long>(report.offered),
      static_cast<unsigned long long>(report.accepted),
      static_cast<unsigned long long>(report.rejected),
      static_cast<unsigned long long>(report.responses),
      static_cast<unsigned long long>(report.checksum),
      static_cast<unsigned long long>(report.final_epoch));
  std::printf("           by status:");
  for (std::size_t s = 0; s < serve::kServeStatusCount; ++s) {
    if (report.by_status[s] == 0) continue;
    std::printf(" %s=%llu",
                std::string(serve::serve_status_name(
                                static_cast<serve::ServeStatus>(s)))
                    .c_str(),
                static_cast<unsigned long long>(report.by_status[s]));
  }
  std::printf("\n           stale served %llu  deadline exceeded %llu  "
              "shed %llu  probe %016llx (fresh %016llx)\n",
              static_cast<unsigned long long>(report.server.stale_served),
              static_cast<unsigned long long>(report.server.deadline_exceeded),
              static_cast<unsigned long long>(report.server.shed),
              static_cast<unsigned long long>(report.post_probe_checksum),
              static_cast<unsigned long long>(report.fresh_probe_checksum));
}

// Reconciles the metrics-registry delta across one storm against the
// storm's own bookkeeping. The post-storm probe streams (worn + fresh
// server, `probes_run` requests each) are the only traffic beyond the
// storm's `offered`: probes submit at most queue_capacity per drain with
// high priority and unlimited budget into a non-degraded server, so they
// can only terminate ok/invalid — every overload/degradation channel in
// the registry must match the report exactly.
int reconcile_registry(const char* label, const obs::MetricsSnapshot& d,
                       const serve::StormReport& report,
                       std::uint64_t probes_run) {
  int failures = 0;
  const auto expect = [&](const std::string& name, std::uint64_t want) {
    const auto got = static_cast<std::uint64_t>(d.value(name));
    if (got != want) {
      std::printf("VIOLATION (%s): registry %s=%llu but bookkeeping says "
                  "%llu\n",
                  label, name.c_str(), static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
      ++failures;
    }
  };
  const auto by_status = [&](serve::ServeStatus s) {
    return report.by_status[static_cast<std::size_t>(s)];
  };
  expect("serve.status.rejected", report.rejected);
  expect("serve.status.shed", by_status(serve::ServeStatus::kShed));
  expect("serve.status.deadline-exceeded",
         by_status(serve::ServeStatus::kDeadlineExceeded));
  expect("serve.status.fault-injected",
         by_status(serve::ServeStatus::kFaultInjected));
  expect("serve.status.stale-cache",
         by_status(serve::ServeStatus::kStaleCache));
  expect("serve.status.unavailable",
         by_status(serve::ServeStatus::kUnavailable));
  expect("serve.accepted", report.accepted + 2 * probes_run);
  expect("serve.served", report.responses + 2 * probes_run);
  expect("serve.rejected", report.rejected);
  expect("serve.shed", by_status(serve::ServeStatus::kShed));

  // The headline invariant: every offered request reached exactly one
  // terminal status, so offered == sum of terminal-status counters (after
  // discounting the probe streams, which are extra traffic).
  std::uint64_t terminal = 0;
  for (std::size_t s = 0; s < serve::kServeStatusCount; ++s) {
    terminal += static_cast<std::uint64_t>(d.value(
        "serve.status." +
        std::string(serve::serve_status_name(
            static_cast<serve::ServeStatus>(s)))));
  }
  if (terminal != report.offered + 2 * probes_run) {
    std::printf("VIOLATION (%s): offered %llu != terminal-status sum %llu "
                "(- %llu probe responses)\n",
                label, static_cast<unsigned long long>(report.offered),
                static_cast<unsigned long long>(terminal),
                static_cast<unsigned long long>(2 * probes_run));
    ++failures;
  }
  return failures;
}

void print_cluster_report(const char* label,
                          const serve::ClusterStormReport& report) {
  std::printf(
      "%-10s offered %llu  accepted %llu  rejected %llu  responses %llu  "
      "dark %llu  quorum %llu  checksum %016llx\n",
      label, static_cast<unsigned long long>(report.offered),
      static_cast<unsigned long long>(report.accepted),
      static_cast<unsigned long long>(report.rejected),
      static_cast<unsigned long long>(report.responses),
      static_cast<unsigned long long>(report.dark_answers),
      static_cast<unsigned long long>(report.quorum_answers),
      static_cast<unsigned long long>(report.checksum));
  std::printf("           by status:");
  for (std::size_t s = 0; s < serve::kServeStatusCount; ++s) {
    if (report.by_status[s] == 0) continue;
    std::printf(" %s=%llu",
                std::string(serve::serve_status_name(
                                static_cast<serve::ServeStatus>(s)))
                    .c_str(),
                static_cast<unsigned long long>(report.by_status[s]));
  }
  std::printf("\n           scatter %llu  messages %llu  probe %016llx "
              "(unsharded %016llx)\n",
              static_cast<unsigned long long>(report.cluster.scatter),
              static_cast<unsigned long long>(report.cluster.messages),
              static_cast<unsigned long long>(report.post_probe_checksum),
              static_cast<unsigned long long>(report.unsharded_probe_checksum));
  const serve::TransportStats& t = report.transport;
  if (t.rpcs == 0) return;
  std::printf("           transport: rpcs %llu  delivered %llu  failed %llu  "
              "timeouts %llu  retries %llu  hedges %llu (won %llu)\n",
              static_cast<unsigned long long>(t.rpcs),
              static_cast<unsigned long long>(t.delivered),
              static_cast<unsigned long long>(t.failed),
              static_cast<unsigned long long>(t.timeouts),
              static_cast<unsigned long long>(t.retries),
              static_cast<unsigned long long>(t.hedges),
              static_cast<unsigned long long>(t.hedge_wins));
  std::printf("           breaker: open %llu  close %llu  probes %llu  "
              "skips %llu  dup %llu  reorder %llu  ticks %llu\n",
              static_cast<unsigned long long>(t.breaker_open),
              static_cast<unsigned long long>(t.breaker_close),
              static_cast<unsigned long long>(t.breaker_probes),
              static_cast<unsigned long long>(t.breaker_skips),
              static_cast<unsigned long long>(t.duplicates),
              static_cast<unsigned long long>(t.reorders),
              static_cast<unsigned long long>(t.ticks));
}

bool equal_cluster_state(const serve::ClusterStormReport& a,
                         const serve::ClusterStormReport& b) {
  return a.checksum == b.checksum && a.by_status == b.by_status &&
         a.offered == b.offered && a.accepted == b.accepted &&
         a.rejected == b.rejected && a.dark_answers == b.dark_answers &&
         a.quorum_answers == b.quorum_answers &&
         a.post_probe_checksum == b.post_probe_checksum &&
         a.cluster == b.cluster && a.transport == b.transport &&
         a.replica_stats == b.replica_stats;
}

bool equal_state(const serve::StormReport& a, const serve::StormReport& b) {
  return a.checksum == b.checksum && a.by_status == b.by_status &&
         a.offered == b.offered && a.accepted == b.accepted &&
         a.rejected == b.rejected && a.final_epoch == b.final_epoch &&
         a.post_probe_checksum == b.post_probe_checksum && a.server == b.server;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gplus;
  bool smoke = false;
  bool transport = false;
  std::size_t shards = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--transport") == 0) {
      transport = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  if (transport && shards == 0) {
    std::fprintf(stderr,
                 "serve_chaos: --transport needs --shards K (the fault model "
                 "sits between router and shard replicas)\n");
    return 1;
  }

  bench::banner("serve_chaos",
                "kill/swap/overload storm against the resilient server");

  const std::size_t nodes = smoke ? 5'000 : bench::scale();
  const std::uint64_t seed = bench::seed();
  const auto dataset_a = core::make_standard_dataset(nodes, seed);
  const auto dataset_b = core::make_standard_dataset(nodes, seed + 1);
  const auto primary = serve::build_snapshot(dataset_a);
  const auto candidate = serve::build_snapshot(dataset_b);
  std::printf("snapshots: %zu nodes each, %zu + %zu bytes, %zu workers%s\n\n",
              nodes, primary.size(), candidate.size(), core::thread_count(),
              smoke ? " (smoke)" : "");

  serve::StormConfig config;
  config.seed = seed;
  config.clients = 64;
  config.rounds = bench::env_or("GPLUS_ROUNDS", smoke ? 160 : 800);
  config.probes = 512;
  config.chaos.fault_rate = 0.01;
  config.chaos.slow_rate = 0.05;
  config.chaos.slow_budget = 16;
  config.chaos.pressure_rate = 0.15;
  config.chaos.pressure_capacity = 24;
  config.server.queue_capacity = 48;  // below clients: real overload
  config.server.cache_capacity = 1 << 12;

  auto& registry = obs::MetricsRegistry::global();
  const auto before_storm = registry.snapshot();
  const auto storm = serve::run_chaos_storm(primary, candidate, config);
  const auto after_storm = registry.snapshot();
  print_report("storm", storm);

  // Determinism leg: the identical storm at one lane.
  const std::size_t lanes = core::thread_count();
  core::set_thread_count(1);
  const auto serial = serve::run_chaos_storm(primary, candidate, config);
  core::set_thread_count(0);
  const auto after_serial = registry.snapshot();
  print_report("serial", serial);

  int failures = 0;
  for (const std::string& violation : storm.violations) {
    std::printf("VIOLATION (storm): %s\n", violation.c_str());
    ++failures;
  }
  for (const std::string& violation : serial.violations) {
    std::printf("VIOLATION (serial): %s\n", violation.c_str());
    ++failures;
  }
  if (!storm.forced_rollback_fired) {
    std::printf("VIOLATION: forced-canary rollback never fired\n");
    ++failures;
  }
  if (!equal_state(storm, serial)) {
    std::printf("VIOLATION: storm state differs between %zu lanes and 1\n",
                lanes);
    ++failures;
  }

  // Registry reconciliation: the metrics deltas across each storm leg must
  // match that leg's own bookkeeping exactly, and the two legs' deltas
  // must serialize identically (the metrics restatement of 1-vs-N
  // bit-identity; probe streams only run when the storm ends non-degraded).
  const std::uint64_t probes_run =
      storm.post_probe_checksum != 0 ? config.probes : 0;
  const auto d_storm = obs::delta(after_storm, before_storm);
  const auto d_serial = obs::delta(after_serial, after_storm);
  failures += reconcile_registry("storm", d_storm, storm, probes_run);
  failures += reconcile_registry("serial", d_serial, serial, probes_run);
  const auto deterministic_only = [](const obs::MetricsSnapshot& snap) {
    obs::MetricsSnapshot out;
    for (const auto& [name, entry] : snap.entries) {
      if (entry.determinism == obs::Determinism::kDeterministic) {
        out.entries.emplace(name, entry);
      }
    }
    return out;
  };
  const std::string json = obs::to_json(deterministic_only(d_storm));
  if (json != obs::to_json(deterministic_only(d_serial))) {
    std::printf("VIOLATION: deterministic metrics deltas differ between "
                "%zu lanes and 1\n",
                lanes);
    ++failures;
  }
  std::printf("\nmetrics delta per storm (deterministic, %zu-lane == 1-lane "
              "bit-identical):\n%s",
              lanes, json.c_str());

  // Sharded-cluster storm: scripted replica kills, a dark-shard window,
  // recovery, then probe equivalence against the unsharded engine. Run at
  // N lanes and again at 1 lane; state and the deterministic metrics JSON
  // must be byte-identical.
  serve::ClusterStormReport cluster_report;
  if (shards > 0) {
    std::printf("\n--- cluster storm: %zu shards x 2 replicas%s ---\n", shards,
                transport ? " over a faulty transport" : "");
    const serve::SnapshotView primary_view(primary.bytes());
    serve::ShardingOptions opts;
    opts.shard_count = shards;
    const auto sharded = serve::split_snapshot(primary_view, opts);

    serve::ClusterStormConfig cluster_config;
    cluster_config.seed = config.seed;
    cluster_config.clients = config.clients;
    cluster_config.rounds = config.rounds;
    cluster_config.probes = config.probes;
    cluster_config.replicas = 2;
    cluster_config.chaos = config.chaos;
    cluster_config.server = config.server;
    if (transport) {
      cluster_config.transport.enabled = true;
      cluster_config.transport.seed = config.seed ^ 0x7E5AULL;
      cluster_config.transport.profile.drop_rate = 0.03;
      cluster_config.transport.profile.delay_rate = 0.10;
      cluster_config.transport.profile.delay_min = 4;
      cluster_config.transport.profile.delay_max = 40;
      cluster_config.transport.profile.duplicate_rate = 0.02;
      cluster_config.transport.profile.reorder_rate = 0.05;
    }

    const auto before_cluster = registry.snapshot();
    const auto cluster_storm =
        serve::run_cluster_storm(sharded, primary_view, cluster_config);
    const auto after_cluster = registry.snapshot();
    print_cluster_report("cluster", cluster_storm);

    core::set_thread_count(1);
    const auto cluster_serial =
        serve::run_cluster_storm(sharded, primary_view, cluster_config);
    core::set_thread_count(0);
    const auto after_cluster_serial = registry.snapshot();
    print_cluster_report("serial", cluster_serial);

    for (const std::string& violation : cluster_storm.violations) {
      std::printf("VIOLATION (cluster): %s\n", violation.c_str());
      ++failures;
    }
    for (const std::string& violation : cluster_serial.violations) {
      std::printf("VIOLATION (cluster serial): %s\n", violation.c_str());
      ++failures;
    }
    if (!equal_cluster_state(cluster_storm, cluster_serial)) {
      std::printf("VIOLATION: cluster storm state differs between %zu lanes "
                  "and 1\n",
                  lanes);
      ++failures;
    }
    const auto d_cluster = obs::delta(after_cluster, before_cluster);
    const auto d_cluster_serial =
        obs::delta(after_cluster_serial, after_cluster);
    const std::string cluster_json = obs::to_json(deterministic_only(d_cluster));
    if (cluster_json != obs::to_json(deterministic_only(d_cluster_serial))) {
      std::printf("VIOLATION: deterministic cluster metrics deltas differ "
                  "between %zu lanes and 1\n",
                  lanes);
      ++failures;
    }
    std::printf("\ncluster metrics delta (deterministic, byte-identical at 1 "
                "and %zu lanes):\n%s",
                lanes, cluster_json.c_str());
    cluster_report = cluster_storm;
  }

  // Machine-readable report for the CI artifact: the storm totals, the
  // cluster degradation counts and the full transport counter set.
  const char* json_env = std::getenv("GPLUS_BENCH_CHAOS_JSON");
  const std::string json_path =
      json_env != nullptr && *json_env != '\0' ? json_env : "BENCH_chaos.json";
  {
    const serve::TransportStats& t = cluster_report.transport;
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"serve_chaos\",\n"
        << "  \"nodes\": " << nodes << ",\n"
        << "  \"rounds\": " << config.rounds << ",\n"
        << "  \"threads\": " << lanes << ",\n"
        << "  \"shards\": " << shards << ",\n"
        << "  \"transport\": " << (transport ? 1 : 0) << ",\n"
        << "  \"offered\": " << storm.offered << ",\n"
        << "  \"accepted\": " << storm.accepted << ",\n"
        << "  \"responses\": " << storm.responses << ",\n"
        << "  \"checksum\": \"" << std::hex << storm.checksum << std::dec
        << "\",\n"
        << "  \"cluster_offered\": " << cluster_report.offered << ",\n"
        << "  \"cluster_accepted\": " << cluster_report.accepted << ",\n"
        << "  \"cluster_responses\": " << cluster_report.responses << ",\n"
        << "  \"cluster_dark\": " << cluster_report.dark_answers << ",\n"
        << "  \"cluster_quorum\": " << cluster_report.quorum_answers << ",\n"
        << "  \"cluster_checksum\": \"" << std::hex << cluster_report.checksum
        << std::dec << "\",\n"
        << "  \"transport_rpcs\": " << t.rpcs << ",\n"
        << "  \"transport_attempts\": " << t.attempts << ",\n"
        << "  \"transport_delivered\": " << t.delivered << ",\n"
        << "  \"transport_failed\": " << t.failed << ",\n"
        << "  \"transport_dropped\": " << t.dropped << ",\n"
        << "  \"transport_timeouts\": " << t.timeouts << ",\n"
        << "  \"transport_retries\": " << t.retries << ",\n"
        << "  \"transport_hedges\": " << t.hedges << ",\n"
        << "  \"transport_hedge_wins\": " << t.hedge_wins << ",\n"
        << "  \"transport_duplicates\": " << t.duplicates << ",\n"
        << "  \"transport_reorders\": " << t.reorders << ",\n"
        << "  \"transport_breaker_open\": " << t.breaker_open << ",\n"
        << "  \"transport_breaker_close\": " << t.breaker_close << ",\n"
        << "  \"transport_ticks\": " << t.ticks << "\n"
        << "}\n";
  }
  std::printf("\nwrote %s\n", json_path.c_str());

  if (failures == 0) {
    std::printf("\nall invariants held: one terminal status per request, "
                "no silent drops, state bit-identical at 1 and %zu lanes\n",
                lanes);
    return 0;
  }
  std::printf("\n%d invariant violation(s)\n", failures);
  return 1;
}
