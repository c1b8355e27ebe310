// Storm harnesses for the serving stack: seeded kill/swap/overload storms
// that drive a ResilientServer (serve/resilience.h) or a ClusterServer
// (serve/cluster.h) and check the invariants the benches and tests
// assert — every admitted request reaches exactly one terminal status,
// nothing is silently dropped, and the storm-worn stack answers a fixed
// probe set byte-identically to a fresh one. Only tests and benches run
// them, so they live here, outside the serving library.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/cluster.h"
#include "serve/resilience.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"
#include "stats/rng.h"

namespace gplus::serve {

/// Storm knobs. The storm script is fixed relative to `rounds`: a forced-
/// rollback install attempt at rounds/4, a real hot-swap at rounds/2, a
/// kill (degraded stretch) at 5·rounds/8 and a rollback at 3·rounds/4.
struct StormConfig {
  std::uint64_t seed = 1;
  /// Closed-loop clients (one request per round each).
  std::size_t clients = 64;
  /// Submit/drain rounds.
  std::uint64_t rounds = 240;
  /// Post-storm probe requests (the storm-free equivalence check).
  std::uint64_t probes = 256;
  ChaosConfig chaos;
  ServerConfig server;
};

/// What the storm produced. `violations` lists every broken invariant —
/// empty means the storm passed.
struct StormReport {
  std::uint64_t offered = 0;   // submit attempts
  std::uint64_t accepted = 0;  // admissions (== terminal responses)
  std::uint64_t rejected = 0;  // explicit queue-full rejections
  std::uint64_t responses = 0; // terminal statuses delivered by drains
  std::array<std::uint64_t, kServeStatusCount> by_status{};
  /// FNV-1a over the terminal response stream (status, flags, payload).
  std::uint64_t checksum = 0;
  /// Probe-set checksum through the storm-worn server vs a fresh server
  /// over the same final generation — equal unless state was corrupted.
  std::uint64_t post_probe_checksum = 0;
  std::uint64_t fresh_probe_checksum = 0;
  std::uint64_t final_epoch = 0;
  bool forced_rollback_fired = false;
  ServerStats server;
  std::vector<std::string> violations;
};

/// Runs the seeded kill/swap/overload storm: serve `primary`, attempt a
/// doomed install of `candidate` (forced canary failure → rollback), then
/// hot-swap to `candidate` for real, kill it (degraded stale-cache
/// stretch), roll back, and keep serving — all while the chaos schedule
/// injects faults, slowdowns and queue pressure. Deterministic in
/// (config, snapshots) at any GPLUS_THREADS.
StormReport run_chaos_storm(const SnapshotBuffer& primary,
                            const SnapshotBuffer& candidate,
                            const StormConfig& config);

// --- Storm helpers, shared by both storms ----------------------------------

/// Folds one response — status, flags, payload size, payload bytes —
/// into the FNV-1a state `h` (the storms' response-stream checksum).
std::uint64_t fold_response(std::uint64_t h, const Response& r) noexcept;

/// Draws one storm request: every type, all three priority classes, a
/// well-formed limit/target per family, and ~2% out-of-range ids (an
/// invalid-node probe).
Request storm_request(stats::Rng& rng, std::size_t n);

/// Feeds `count` seeded probe requests — chaos-free: high priority,
/// unlimited budgets — through `server` (a QueryServer or ClusterServer)
/// in queue-capacity batches and checksums the response stream, so two
/// servers can be compared answer for answer.
template <typename ServerT>
std::uint64_t run_probe_stream(ServerT& server, std::uint64_t seed,
                               std::uint64_t count, std::size_t n) {
  stats::Rng rng(seed);
  std::vector<Response> responses;
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  std::uint64_t issued = 0;
  while (issued < count) {
    const std::uint64_t batch =
        std::min<std::uint64_t>(count - issued, server.queue_capacity());
    for (std::uint64_t i = 0; i < batch; ++i) {
      Request q = storm_request(rng, n);
      q.priority = Priority::kHigh;
      q.cost_budget = ~std::uint32_t{0};
      server.submit(q);
    }
    server.drain(responses);
    for (const Response& r : responses) checksum = fold_response(checksum, r);
    issued += batch;
  }
  return checksum;
}

/// Cluster chaos storm knobs. The storm scripts staggered replica kills
/// (failover window), a fully-dark shard window, and recovery, on top of
/// the usual fault/slow/pressure chaos channels.
struct ClusterStormConfig {
  std::uint64_t seed = 1;
  std::size_t clients = 64;
  std::uint64_t rounds = 240;
  /// Post-storm probes, answered by the recovered cluster AND a fresh
  /// unsharded server over the full snapshot — checksums must match.
  std::uint64_t probes = 256;
  std::size_t replicas = 2;
  ChaosConfig chaos;
  ServerConfig server;
  /// Transport fault model for the storm. When enabled, the storm also
  /// scripts a heavy-loss *brownout* window ([rounds/8, rounds/4): drop
  /// rate 0.9) so circuit breakers demonstrably open and then close
  /// again via half-open probes once the window lifts.
  TransportConfig transport;
};

/// What the cluster storm produced. Empty `violations` means every
/// invariant held: one terminal status per admitted request, zero silent
/// drops, dark answers observed, and probe equivalence vs the unsharded
/// engine after recovery.
struct ClusterStormReport {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t responses = 0;
  std::array<std::uint64_t, kServeStatusCount> by_status{};
  /// FNV-1a over the terminal response stream (status, flags, payload).
  std::uint64_t checksum = 0;
  std::uint64_t dark_answers = 0;
  std::uint64_t quorum_answers = 0;
  std::uint64_t post_probe_checksum = 0;      // recovered cluster
  std::uint64_t unsharded_probe_checksum = 0; // fresh unsharded server
  ClusterStats cluster;
  /// Transport counters at end-of-storm (pre-probe; zero when disabled).
  TransportStats transport;
  std::vector<ServerStats> replica_stats;     // shard-major order
  std::vector<std::string> violations;
};

/// Runs the seeded shard-kill/recover storm over `sharded`, with chaos
/// faults/slowdowns/pressure, then probes the recovered cluster against a
/// fresh unsharded QueryServer over `full`. Deterministic in (config,
/// snapshot bytes) at any GPLUS_THREADS.
ClusterStormReport run_cluster_storm(const ShardedSnapshot& sharded,
                                     const SnapshotView& full,
                                     const ClusterStormConfig& config);

}  // namespace gplus::serve
