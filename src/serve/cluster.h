// Simulated serving cluster: K vertex shards × R replicas behind one
// deterministic router, all in-process on the virtual-cost clock.
//
// Routing (DESIGN.md §13):
//   - single-shard families (GetProfile, circle pages, Reciprocity,
//     Degree) go straight to the owner shard's active replica — a plain
//     QueryServer over that shard's self-contained snapshot, whose owned
//     rows are bit-equal to the unsharded snapshot, so answers are
//     answer-identical to the unsharded engine;
//   - cross-shard families (ShortestPath, TopK, Suggest) scatter-gather at
//     the router by running the engine's own core for the family over an
//     owner-shard row source (serve/row_source.h): every row comes from
//     its owner shard, one message per distinct shard read per phase,
//     ShortestPath picks its side from router-held degree arrays, and
//     TopK merges per-shard top lists over owned nodes. The cores meter
//     the same virtual cost the unsharded engine does, so deadline
//     outcomes — and therefore payload bytes — match it exactly.
//
// Determinism: submits route serially; replica drains run in (shard,
// replica) order, each internally the bit-identical QueryServer drain;
// scatter executions are pure per-slot writes on the parallel_for chunk
// grid with all counter tallies serialized afterward in request order.
// A K-shard run is therefore bit-identical at any GPLUS_THREADS.
//
// Resilience: every shard has R replicas; the active one is the
// lowest-index live replica (deterministic failover). A shard with no
// live replica is *dark*: single-shard requests answer terminal
// kUnavailable with the kResponseShardDark flag, scatter answers degrade
// to best-effort over the live shards and carry the same flag — degraded
// partial answers, never silent drops.
//
// Transport faults (DESIGN.md §15): when ClusterConfig::transport is
// enabled, every router↔replica message passes through a FaultyTransport
// (drop/delay/duplicate/reorder on a seeded schedule, per-rpc timeouts
// with retries, hedged sends to the sibling replica, per-replica circuit
// breakers). A shard whose live replicas stay unreachable degrades the
// answer with kResponseQuorumPartial — quorum-style partial gathers for
// the scatter families, terminal kUnavailable for single-shard dispatch —
// still never a silent drop, still bit-identical at any GPLUS_THREADS.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.h"
#include "serve/snapshot_build.h"
#include "serve/transport.h"
#include "serve/workload.h"

namespace gplus::serve {

/// Cluster knobs. `server` configures every replica (metrics_scope is
/// overridden per replica with "s<shard>.r<replica>").
struct ClusterConfig {
  ServerConfig server;
  /// Replicas per shard (>= 1).
  std::size_t replicas = 1;
  /// Router↔replica transport fault model; disabled = perfect network.
  TransportConfig transport;
};

/// Router-level lifetime counters, built from the router's counter store
/// and exported as serve.cluster.* from the first submit on. Replica-level
/// counters live in each replica's ServerStats (and its scoped registry
/// slice).
struct ClusterStats {
  std::uint64_t accepted = 0;       // admitted into this drain cycle
  std::uint64_t rejected = 0;       // replica queue full or router full
  std::uint64_t served = 0;         // terminal responses delivered
  std::uint64_t scatter = 0;        // scatter-gather executions
  std::uint64_t messages = 0;       // delivered inter-shard messages
  std::uint64_t dark_answers = 0;   // responses flagged kResponseShardDark
  std::uint64_t quorum_answers = 0; // responses flagged kResponseQuorumPartial
  std::array<std::uint64_t, kServeStatusCount> by_status{};

  bool operator==(const ClusterStats&) const = default;
};

/// K-shard × R-replica cluster with one coordinator-thread submit/drain
/// surface, mirroring QueryServer's: submit() returns kOk or kRejected,
/// drain() delivers one terminal response per accepted request, in
/// admission order. kill/recover/drain/submit are coordinator operations;
/// parallelism lives inside drain() on the shared pool.
class ClusterServer {
 public:
  /// `routing` and `shard_views` (one open view per shard, global node id
  /// space) must outlive the cluster. Throws std::invalid_argument on
  /// shape mismatches and on a routing owner outside the shards.
  ClusterServer(const RoutingTable* routing,
                std::vector<const SnapshotView*> shard_views,
                ClusterConfig config = {});

  /// Admits one request. Single-shard families submit into the owner
  /// shard's active replica (its shed/reject policy applies); scatter
  /// families queue at the router (kRejected when the router queue is
  /// full). Invalid ids and dark-shard targets are admitted and answered
  /// terminally at drain, exactly like QueryServer's fault-marked
  /// requests. `inject_fault` forces a terminal kFaultInjected.
  ServeStatus submit(const Request& request, bool inject_fault = false);

  /// Serves everything admitted since the last drain; `responses[i]`
  /// answers the i-th accepted request. One terminal status per request,
  /// bit-identical at any GPLUS_THREADS. Reads no clock; serving latency
  /// is timed by the caller, as in QueryServer::drain.
  void drain(std::vector<Response>& responses);

  /// Replica lifecycle (coordinator-side chaos hooks). Only legal between
  /// drains — queued() == 0 — so no admitted request straddles a kill.
  void kill_replica(std::size_t shard, std::size_t replica);
  void recover_replica(std::size_t shard, std::size_t replica);
  bool replica_up(std::size_t shard, std::size_t replica) const;
  /// True when the shard has no live replica.
  bool shard_dark(std::size_t shard) const;

  /// Chaos hook: queue-pressure cap applied to every replica.
  void set_queue_pressure(std::size_t capacity);

  /// Transport chaos hooks (coordinator-side, between drains only, like
  /// kill/recover). set_transport_profile swaps the fault channels;
  /// heal_transport zeroes them AND closes every breaker — the post-storm
  /// probe precondition. Both are no-ops with the transport disabled.
  void set_transport_profile(const FaultProfile& profile);
  void heal_transport();
  TransportStats transport_stats() const { return transport_.stats(); }

  std::size_t shard_count() const noexcept { return views_.size(); }
  std::size_t replicas_per_shard() const noexcept { return config_.replicas; }
  std::size_t node_count() const noexcept { return routing_->owner.size(); }
  /// Requests admitted and not yet drained.
  std::size_t queued() const noexcept { return pending_.size(); }
  /// Per-drain admission bound clients should batch against (the replica
  /// and router queues share this capacity).
  std::size_t queue_capacity() const noexcept {
    return config_.server.queue_capacity;
  }

  ClusterStats stats_snapshot() const;
  /// One replica's lifetime counters (cache state included).
  ServerStats replica_stats(std::size_t shard, std::size_t replica) const;
  /// Sum of every replica's counters plus router-level rejections —
  /// the cluster-wide analogue of QueryServer::stats_snapshot().
  ServerStats aggregate_server_stats() const;

  /// The registry scope of one replica ("s<shard>.r<replica>").
  static std::string replica_scope(std::size_t shard, std::size_t replica);

  const RoutingTable& routing() const noexcept { return *routing_; }
  const ClusterConfig& config() const noexcept { return config_; }

 private:
  enum class Route : std::uint8_t {
    kReplica = 0,  // submitted into a replica's queue
    kScatter,      // router-held scatter-gather execution
    kTerminal,     // answered directly at drain (invalid/fault/dark)
  };

  struct Slot {
    Route route = Route::kTerminal;
    std::uint16_t shard = 0;
    std::uint16_t replica = 0;
    std::uint32_t local = 0;          // index into the replica's drain batch
    ServeStatus terminal = ServeStatus::kOk;
    std::uint8_t terminal_flags = 0;
    std::uint64_t terminal_cost = 0;
    std::uint64_t seq = 0;            // router sequence (transport keying)
    Request request;                  // kept for scatter execution
  };

  std::size_t replica_index(std::size_t shard, std::size_t replica) const {
    return shard * config_.replicas + replica;
  }
  /// Lowest-index live replica, or replicas when the shard is dark.
  std::size_t active_replica(std::size_t shard) const;

  static bool scatter_type(RequestType type) noexcept {
    return type == RequestType::kShortestPath ||
           type == RequestType::kTopK || type == RequestType::kSuggest;
  }

  /// Executes one scatter request (pure; runs on any lane). `messages`
  /// receives the delivered inter-shard message count, `rpcs` every
  /// transport contact rolled (empty with the transport disabled).
  void execute_scatter(const Request& request, std::uint64_t seq,
                       Response& response, std::uint64_t& messages,
                       std::vector<ShardRpc>& rpcs) const;
  /// Exports the router counts to the registry (on the first submit).
  void export_counts();

  const RoutingTable* routing_;
  std::vector<const SnapshotView*> views_;
  ClusterConfig config_;
  std::vector<QueryServer> replicas_;
  std::vector<std::uint8_t> up_;
  obs::CounterStore counts_;  // every ClusterStats count
  std::vector<Slot> pending_;
  std::vector<std::uint32_t> scatter_slots_;  // indices into pending_
  std::size_t router_queued_ = 0;
  /// Per-shard top-`topk_cap` (node, in_degree) lists over owned nodes,
  /// (degree desc, id asc): merging them over the live shards recovers
  /// the unsharded engine's TopK list exactly when all shards are up.
  std::vector<std::vector<std::pair<graph::NodeId, std::uint64_t>>> shard_topk_;
  /// Global out- and in-degree per node, read from the owner shard once:
  /// ShortestPath chooses its expansion side from them without touching
  /// a shard (4 B per node per direction).
  std::vector<std::uint32_t> out_degree_;
  std::vector<std::uint32_t> in_degree_;
  /// Global maximum in-degree over owned rows — equal to the unsharded
  /// engine's value, so Suggest reciprocation scores match it exactly.
  std::uint64_t max_in_degree_ = 0;
  FaultyTransport transport_;
  /// Router sequence number: every submit consumes one, giving each
  /// request attempt its own transport fault stream.
  std::uint64_t transport_seq_ = 0;
  // Drain scratch, reused across batches.
  std::vector<std::vector<Response>> replica_responses_;
  std::vector<std::uint8_t> replica_reversed_;  // batch delivered reversed
  std::vector<std::uint8_t> dark_;              // per shard, at drain start
  std::vector<std::uint64_t> scatter_messages_;
  std::vector<std::vector<ShardRpc>> scatter_rpcs_;
};

/// Closed-loop workload over a cluster (declared here, implemented with
/// the QueryServer harness in workload.cpp): `ranking_view` supplies the
/// global in-degree ordering for the Zipf target draw — pass the full
/// unsharded view.
LoadReport run_closed_loop(ClusterServer& cluster,
                           const SnapshotView& ranking_view,
                           const WorkloadConfig& config);

}  // namespace gplus::serve
