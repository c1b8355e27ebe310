#include "serve/cluster.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/row_source.h"
#include "serve/suggest.h"
#include "stats/rng.h"

namespace gplus::serve {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Router-level registry mirror. All increments happen on the drain
// coordinator in admission order, hence deterministic at any lane count.
// Cluster instances share these names (storm legs compare registry
// *deltas*, so sharing is what makes the legs byte-comparable).
struct ClusterMetrics {
  obs::Counter& accepted;
  obs::Counter& rejected;
  obs::Counter& served;
  obs::Counter& scatter;
  obs::Counter& messages;
  obs::Counter& dark;
  obs::Counter& quorum;
  std::array<obs::Counter*, kServeStatusCount> status;

  static ClusterMetrics& get() {
    static ClusterMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::global();
      auto* out = new ClusterMetrics{
          reg.counter("serve.cluster.accepted"),
          reg.counter("serve.cluster.rejected"),
          reg.counter("serve.cluster.served"),
          reg.counter("serve.cluster.scatter"),
          reg.counter("serve.cluster.messages"),
          reg.counter("serve.cluster.dark"),
          reg.counter("serve.cluster.quorum"),
          {},
      };
      for (std::size_t s = 0; s < kServeStatusCount; ++s) {
        const std::string name =
            "serve.cluster.status." +
            std::string(serve_status_name(static_cast<ServeStatus>(s)));
        out->status[s] = &reg.counter(name);
      }
      return out;
    }();
    return *m;
  }
};

}  // namespace

std::string ClusterServer::replica_scope(std::size_t shard,
                                         std::size_t replica) {
  std::string scope = "s";
  scope += std::to_string(shard);
  scope += ".r";
  scope += std::to_string(replica);
  return scope;
}

ClusterServer::ClusterServer(const RoutingTable* routing,
                             std::vector<const SnapshotView*> shard_views,
                             ClusterConfig config)
    : routing_(routing),
      views_(std::move(shard_views)),
      config_(config),
      transport_(config_.transport, views_.size(),
                 config_.replicas > 0 ? config_.replicas : 1) {
  if (routing_ == nullptr) {
    throw std::invalid_argument("cluster: null routing table");
  }
  if (views_.empty() || views_.size() != routing_->shard_count) {
    throw std::invalid_argument("cluster: shard view count != shard count");
  }
  if (config_.replicas == 0) {
    throw std::invalid_argument("cluster: 0 replicas per shard");
  }
  const std::size_t n = routing_->owner.size();
  for (const SnapshotView* view : views_) {
    if (view == nullptr || view->node_count() != n) {
      throw std::invalid_argument("cluster: shard view node count mismatch");
    }
  }
  const std::size_t count = views_.size() * config_.replicas;
  replicas_.reserve(count);
  for (std::size_t s = 0; s < views_.size(); ++s) {
    for (std::size_t r = 0; r < config_.replicas; ++r) {
      ServerConfig sc = config_.server;
      sc.metrics_scope = replica_scope(s, r);
      replicas_.emplace_back(views_[s], sc);
    }
  }
  up_.assign(count, 1);
  replica_responses_.resize(count);
  replica_latency_.resize(count);
  replica_reversed_.assign(count, 0);

  dark_.assign(views_.size(), 0);

  // Per-shard TopK over owned nodes, all shards in one walk. Owned
  // in-degrees are globally correct (the shard holds every in-edge of an
  // owned node), so merging the lists recovers the engine's list.
  TopKSelector select(views_.size(), config_.server.engine.topk_cap);
  for (graph::NodeId u = 0; u < n; ++u) {
    const std::size_t s = routing_->owner[u];
    if (s >= views_.size()) {
      throw std::invalid_argument("cluster: node owner outside the shards");
    }
    select.offer(s, u, views_[s]->in_degree(u));
  }
  shard_topk_ = select.take();
  max_in_degree_ = select.max_in_degree();
}

std::size_t ClusterServer::active_replica(std::size_t shard) const {
  for (std::size_t r = 0; r < config_.replicas; ++r) {
    if (up_[replica_index(shard, r)]) return r;
  }
  return config_.replicas;
}

bool ClusterServer::replica_up(std::size_t shard, std::size_t replica) const {
  return up_[replica_index(shard, replica)] != 0;
}

bool ClusterServer::shard_dark(std::size_t shard) const {
  return active_replica(shard) == config_.replicas;
}

void ClusterServer::kill_replica(std::size_t shard, std::size_t replica) {
  if (!pending_.empty()) {
    throw std::logic_error("cluster: kill_replica between drains only");
  }
  up_[replica_index(shard, replica)] = 0;
}

void ClusterServer::recover_replica(std::size_t shard, std::size_t replica) {
  if (!pending_.empty()) {
    throw std::logic_error("cluster: recover_replica between drains only");
  }
  up_[replica_index(shard, replica)] = 1;
}

void ClusterServer::set_queue_pressure(std::size_t capacity) {
  for (QueryServer& replica : replicas_) {
    replica.set_queue_pressure(capacity);
  }
}

void ClusterServer::set_transport_profile(const FaultProfile& profile) {
  if (!pending_.empty()) {
    throw std::logic_error("cluster: set_transport_profile between drains");
  }
  if (transport_.enabled()) transport_.set_profile(profile);
}

void ClusterServer::heal_transport() {
  if (!pending_.empty()) {
    throw std::logic_error("cluster: heal_transport between drains only");
  }
  if (transport_.enabled()) transport_.heal();
}

ServerStats ClusterServer::replica_stats(std::size_t shard,
                                         std::size_t replica) const {
  return replicas_[replica_index(shard, replica)].stats_snapshot();
}

ServerStats ClusterServer::aggregate_server_stats() const {
  ServerStats total;
  for (const QueryServer& replica : replicas_) {
    const ServerStats s = replica.stats_snapshot();
    total.stale_served += s.stale_served;
    for (std::size_t t = 0; t < kRequestTypeCount; ++t) {
      total.per_type[t] += s.per_type[t];
    }
    for (std::size_t c = 0; c < kPriorityCount; ++c) {
      total.admitted_by_class[c] += s.admitted_by_class[c];
      total.rejected_by_class[c] += s.rejected_by_class[c];
      total.shed_by_class[c] += s.shed_by_class[c];
    }
    total.cache.hits += s.cache.hits;
    total.cache.stale_hits += s.cache.stale_hits;
    total.cache.misses += s.cache.misses;
    total.cache.evictions += s.cache.evictions;
    total.cache.entries += s.cache.entries;
  }
  // Admission and terminal-outcome counts come from the router: it sees
  // every request (terminal-at-router answers never reach a replica).
  total.accepted = stats_.accepted;
  total.rejected = stats_.rejected;
  total.served = stats_.served;
  const auto status_of = [&](ServeStatus st) {
    return stats_.by_status[static_cast<std::size_t>(st)];
  };
  total.shed = status_of(ServeStatus::kShed);
  total.deadline_exceeded = status_of(ServeStatus::kDeadlineExceeded);
  total.fault_injected = status_of(ServeStatus::kFaultInjected);
  total.unavailable = status_of(ServeStatus::kUnavailable);
  return total;
}

ServeStatus ClusterServer::submit(const Request& request, bool inject_fault) {
  ClusterMetrics& metrics = ClusterMetrics::get();
  Slot slot;
  // Every submit consumes one router sequence number — the transport
  // fault stream is keyed on it, so a client retry of the same request
  // rolls fresh faults (request id + attempt, never wall clock).
  slot.seq = transport_seq_++;
  slot.request = request;
  const auto cls =
      static_cast<std::size_t>(request.priority) % kPriorityCount;
  if (slot.request.cost_budget == 0) {
    slot.request.cost_budget = config_.server.default_cost_budget[cls];
  }
  const std::size_t n = node_count();
  const auto type_index = static_cast<std::size_t>(request.type);

  if (inject_fault) {
    // Server-level fault: terminal, never executed — mirrors QueryServer.
    slot.route = Route::kTerminal;
    slot.terminal = ServeStatus::kFaultInjected;
  } else if (type_index >= kRequestTypeCount) {
    slot.route = Route::kTerminal;
    slot.terminal = ServeStatus::kInvalidRequest;
    slot.terminal_cost = 1;  // the engine's dispatch charge
  } else if (scatter_type(request.type)) {
    // Mirror the engine's id validation so terminal statuses match it.
    const bool invalid_node =
        (request.type == RequestType::kShortestPath &&
         (request.user >= n || request.target >= n)) ||
        (request.type == RequestType::kSuggest && request.user >= n);
    if (invalid_node) {
      slot.route = Route::kTerminal;
      slot.terminal = ServeStatus::kInvalidNode;
      slot.terminal_cost = 1;
    } else if (router_queued_ >= router_capacity()) {
      ++stats_.rejected;
      metrics.rejected.add(1);
      metrics.status[static_cast<std::size_t>(ServeStatus::kRejected)]->add(1);
      return ServeStatus::kRejected;
    } else {
      slot.route = Route::kScatter;
      ++router_queued_;
    }
  } else if (request.user >= n) {
    slot.route = Route::kTerminal;
    slot.terminal = ServeStatus::kInvalidNode;
    slot.terminal_cost = 1;
  } else {
    const std::size_t shard = routing_->owner[request.user];
    std::size_t replica = active_replica(shard);
    bool unreachable = false;
    if (replica != config_.replicas && transport_.enabled()) {
      // Route the dispatch rpc through the fault layer: the target is the
      // lowest live replica whose breaker admits sends (breaker-open
      // primaries fail over organically), a slow primary is hedged to the
      // sibling, and an rpc that exhausts every attempt degrades the
      // answer instead of hanging.
      const RpcOutcome rpc = transport_.dispatch(
          FaultyTransport::rpc_key(slot.seq, 0, shard), shard,
          &up_[replica_index(shard, 0)]);
      if (rpc.ok) {
        replica = rpc.replica();
      } else {
        unreachable = true;
      }
    }
    if (replica == config_.replicas || unreachable) {
      // Dark or unreachable shard: a degraded terminal answer (flagged
      // with the failure mode), never a silent drop.
      slot.route = Route::kTerminal;
      slot.terminal = ServeStatus::kUnavailable;
      slot.terminal_flags =
          unreachable ? kResponseQuorumPartial : kResponseShardDark;
    } else {
      QueryServer& qs = replicas_[replica_index(shard, replica)];
      if (qs.submit(slot.request) == ServeStatus::kRejected) {
        ++stats_.rejected;
        metrics.rejected.add(1);
        metrics.status[static_cast<std::size_t>(ServeStatus::kRejected)]->add(
            1);
        return ServeStatus::kRejected;
      }
      slot.route = Route::kReplica;
      slot.shard = static_cast<std::uint16_t>(shard);
      slot.replica = static_cast<std::uint16_t>(replica);
      // Each accepted replica submit appends exactly one queue entry, so
      // the replica's drain answers it at this local index.
      slot.local = static_cast<std::uint32_t>(qs.queued() - 1);
    }
  }
  pending_.push_back(std::move(slot));
  if (pending_.back().route == Route::kScatter) {
    scatter_slots_.push_back(static_cast<std::uint32_t>(pending_.size() - 1));
  }
  ++stats_.accepted;
  metrics.accepted.add(1);
  return ServeStatus::kOk;
}

void ClusterServer::drain(std::vector<Response>& responses,
                          std::vector<std::uint64_t>* latency_ns) {
  const std::size_t batch = pending_.size();
  responses.resize(batch);
  if (latency_ns != nullptr) latency_ns->assign(batch, 0);
  if (batch == 0) {
    // Breaker cooldowns advance per drain tick even when idle — an open
    // breaker must eventually half-open with no traffic behind it.
    if (transport_.enabled()) transport_.tick();
    return;
  }

  ClusterMetrics& metrics = ClusterMetrics::get();
  auto& trace = obs::TraceLog::global();
  obs::TraceLog::Scope drain_span(trace, "serve.cluster.drain");

  // Scatter target selection is frozen now (serial): the parallel phase-B
  // rolls read only this snapshot, and the breaker transitions folded in
  // phase C model responses already in flight when a breaker tripped.
  if (transport_.enabled()) transport_.freeze(up_.data());

  // Phase A (coordinator): drain every replica with queued work, in
  // (shard, replica) order. Each drain is QueryServer's bit-identical
  // three-phase drain; running them in a fixed serial order keeps every
  // cache/counter mutation deterministically ordered. The transport may
  // deliver a replica's response batch in reverse order — phase C
  // re-matches responses by their request id (the local index carried on
  // the wire), so reordering is absorbed, never misattributed.
  for (std::size_t s = 0; s < shard_count(); ++s) {
    for (std::size_t r = 0; r < config_.replicas; ++r) {
      const std::size_t idx = replica_index(s, r);
      replica_reversed_[idx] = 0;
      if (replicas_[idx].queued() == 0) continue;
      replicas_[idx].drain(replica_responses_[idx],
                           latency_ns != nullptr ? &replica_latency_[idx]
                                                 : nullptr);
      if (transport_.enabled() &&
          transport_.reorder_batch(s, r, replica_responses_[idx].size())) {
        replica_reversed_[idx] = 1;
        std::reverse(replica_responses_[idx].begin(),
                     replica_responses_[idx].end());
        if (latency_ns != nullptr) {
          std::reverse(replica_latency_[idx].begin(),
                       replica_latency_[idx].end());
        }
      }
    }
  }

  for (std::size_t s = 0; s < shard_count(); ++s) dark_[s] = shard_dark(s);

  // Phase B (parallel): scatter-gather executions. Pure reads of the
  // shard views + per-slot writes, so payloads are lane-count
  // independent; per-slot message counts and transport rolls land in
  // scratch and are tallied serially in phase C.
  scatter_messages_.assign(scatter_slots_.size(), 0);
  scatter_rpcs_.resize(scatter_slots_.size());
  core::parallel_for(
      scatter_slots_.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          const std::uint32_t i = scatter_slots_[j];
          scatter_rpcs_[j].clear();
          const std::uint64_t start = latency_ns != nullptr ? now_ns() : 0;
          execute_scatter(pending_[i].request, pending_[i].seq, responses[i],
                          scatter_messages_[j], scatter_rpcs_[j]);
          if (latency_ns != nullptr) {
            (*latency_ns)[i] = now_ns() - start;
          }
        }
      });

  // Phase C (coordinator, admission order): place replica answers and
  // terminal answers, then tally all router counters serially.
  std::uint64_t scatter_cost = 0;
  std::size_t scatter_j = 0;
  for (std::size_t i = 0; i < batch; ++i) {
    Slot& slot = pending_[i];
    Response& resp = responses[i];
    switch (slot.route) {
      case Route::kReplica: {
        const std::size_t idx = replica_index(slot.shard, slot.replica);
        const std::size_t local =
            replica_reversed_[idx] != 0
                ? replica_responses_[idx].size() - 1 - slot.local
                : slot.local;
        resp = std::move(replica_responses_[idx][local]);
        if (latency_ns != nullptr) {
          (*latency_ns)[i] = replica_latency_[idx][local];
        }
        break;
      }
      case Route::kScatter:
        scatter_cost += resp.cost;
        if (transport_.enabled()) {
          for (const ShardRpc& rpc : scatter_rpcs_[scatter_j]) {
            transport_.commit(rpc.shard, rpc.outcome);
          }
        }
        ++scatter_j;
        break;
      case Route::kTerminal:
        resp.status = slot.terminal;
        resp.flags = slot.terminal_flags;
        resp.payload.clear();
        resp.cost = slot.terminal_cost;
        break;
    }
    ++stats_.by_status[static_cast<std::size_t>(resp.status) %
                       kServeStatusCount];
    metrics.status[static_cast<std::size_t>(resp.status) % kServeStatusCount]
        ->add(1);
    if ((resp.flags & kResponseShardDark) != 0) {
      ++stats_.dark_answers;
      metrics.dark.add(1);
    }
    if ((resp.flags & kResponseQuorumPartial) != 0) {
      ++stats_.quorum_answers;
      metrics.quorum.add(1);
    }
  }
  std::uint64_t message_total = 0;
  for (const std::uint64_t m : scatter_messages_) message_total += m;
  stats_.messages += message_total;
  stats_.scatter += scatter_slots_.size();
  stats_.served += batch;
  metrics.messages.add(message_total);
  metrics.scatter.add(scatter_slots_.size());
  metrics.served.add(batch);

  // Replica drains advanced the virtual clock by their own batch costs;
  // the router adds the scatter work it executed itself, plus whatever
  // the transport burned on timeouts, delays, retries and hedges.
  trace.advance(scatter_cost);
  drain_span.attr("batch", batch);
  drain_span.attr("scatter", scatter_slots_.size());
  drain_span.attr("messages", message_total);
  if (transport_.enabled()) {
    transport_.tick();
    const std::uint64_t transport_ticks = transport_.take_ticks();
    trace.advance(transport_ticks);
    drain_span.attr("transport_ticks", transport_ticks);
  }

  pending_.clear();
  scatter_slots_.clear();
  router_queued_ = 0;
}

// One core per family, run over the owner-shard row source: charges and
// payload bytes equal the unsharded engine's whenever every shard is
// reachable; a dark or unreachable owner degrades the answer with its
// flag bits instead of failing it.
void ClusterServer::execute_scatter(const Request& request, std::uint64_t seq,
                                    Response& response,
                                    std::uint64_t& messages,
                                    std::vector<ShardRpc>& rpcs) const {
  response.status = ServeStatus::kOk;
  response.flags = 0;
  response.payload.clear();
  const FaultyTransport* transport =
      transport_.enabled() ? &transport_ : nullptr;
  ShardSource rows({routing_->owner.data(), views_.data(), dark_.data(),
                    shard_count(), transport, seq, &rpcs, &messages});
  const EngineConfig& config = config_.server.engine;
  RequestEngine::Meter meter;
  if (request.cost_budget != 0) meter.budget = request.cost_budget;
  meter.charge(1);  // the engine's dispatch charge
  if (request.type == RequestType::kShortestPath) {
    shortest_path_core(rows, config, request.user, request.target, response,
                       meter);
  } else if (request.type == RequestType::kSuggest) {
    suggest_core(rows, config, max_in_degree_, request, response, meter);
  } else {
    top_k_core(rows, config, shard_topk_, request.limit, response, meter);
  }
  response.cost = meter.spent;
}

// --- Cluster storm --------------------------------------------------------

namespace {

void expect(std::vector<std::string>& violations, bool ok,
            const std::string& what) {
  if (!ok) violations.push_back(what);
}

void expect_metric(std::vector<std::string>& violations,
                   const obs::MetricsSnapshot& d, const std::string& name,
                   std::uint64_t want) {
  const auto got = static_cast<std::uint64_t>(d.value(name));
  if (got != want) {
    violations.push_back("registry " + name + " = " + std::to_string(got) +
                         ", bookkeeping says " + std::to_string(want));
  }
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

  auto& registry = obs::MetricsRegistry::global();
  const auto before = registry.snapshot();

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

  // Reconcile registry deltas BEFORE the probe traffic muddies them:
  // every replica's scoped slice must equal its own stats exactly (the
  // no-double-counting contract), and the router counters must equal the
  // cluster's bookkeeping.
  const auto after = registry.snapshot();
  const auto d = obs::delta(after, before);
  report.cluster = cluster.stats_snapshot();
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t r = 0; r < config.replicas; ++r) {
      const ServerStats st = cluster.replica_stats(s, r);
      report.replica_stats.push_back(st);
      const std::string prefix =
          "serve." + ClusterServer::replica_scope(s, r) + ".";
      expect_metric(report.violations, d, prefix + "accepted", st.accepted);
      expect_metric(report.violations, d, prefix + "served", st.served);
      expect_metric(report.violations, d, prefix + "rejected", st.rejected);
      expect_metric(report.violations, d, prefix + "shed", st.shed);
      expect_metric(report.violations, d, prefix + "deadline_exceeded",
                    st.deadline_exceeded);
      expect_metric(report.violations, d, prefix + "fault_injected",
                    st.fault_injected);
      expect_metric(report.violations, d, prefix + "stale_served",
                    st.stale_served);
      expect_metric(report.violations, d, prefix + "unavailable",
                    st.unavailable);
      expect_metric(report.violations, d, prefix + "cache.hits",
                    st.cache.hits);
      expect_metric(report.violations, d, prefix + "cache.stale_hits",
                    st.cache.stale_hits);
      expect_metric(report.violations, d, prefix + "cache.misses",
                    st.cache.misses);
      expect_metric(report.violations, d, prefix + "cache.evictions",
                    st.cache.evictions);
    }
  }
  expect_metric(report.violations, d, "serve.cluster.accepted",
                report.cluster.accepted);
  expect_metric(report.violations, d, "serve.cluster.rejected",
                report.cluster.rejected);
  expect_metric(report.violations, d, "serve.cluster.served",
                report.cluster.served);
  expect_metric(report.violations, d, "serve.cluster.scatter",
                report.cluster.scatter);
  expect_metric(report.violations, d, "serve.cluster.messages",
                report.cluster.messages);
  expect_metric(report.violations, d, "serve.cluster.dark",
                report.cluster.dark_answers);
  expect_metric(report.violations, d, "serve.cluster.quorum",
                report.cluster.quorum_answers);
  report.transport = cluster.transport_stats();
  if (config.transport.enabled) {
    const TransportStats& t = report.transport;
    expect_metric(report.violations, d, "serve.transport.rpcs", t.rpcs);
    expect_metric(report.violations, d, "serve.transport.attempts",
                  t.attempts);
    expect_metric(report.violations, d, "serve.transport.delivered",
                  t.delivered);
    expect_metric(report.violations, d, "serve.transport.failed", t.failed);
    expect_metric(report.violations, d, "serve.transport.dropped", t.dropped);
    expect_metric(report.violations, d, "serve.transport.delayed", t.delayed);
    expect_metric(report.violations, d, "serve.transport.timeouts",
                  t.timeouts);
    expect_metric(report.violations, d, "serve.transport.retries", t.retries);
    expect_metric(report.violations, d, "serve.transport.hedges", t.hedges);
    expect_metric(report.violations, d, "serve.transport.hedge_wins",
                  t.hedge_wins);
    expect_metric(report.violations, d, "serve.transport.duplicates",
                  t.duplicates);
    expect_metric(report.violations, d, "serve.transport.dup_suppressed",
                  t.dup_suppressed);
    expect_metric(report.violations, d, "serve.transport.reorders",
                  t.reorders);
    expect_metric(report.violations, d, "serve.transport.breaker_open",
                  t.breaker_open);
    expect_metric(report.violations, d, "serve.transport.breaker_close",
                  t.breaker_close);
    expect_metric(report.violations, d, "serve.transport.breaker_probes",
                  t.breaker_probes);
    expect_metric(report.violations, d, "serve.transport.breaker_skips",
                  t.breaker_skips);
    expect_metric(report.violations, d, "serve.transport.ticks", t.ticks);
  }

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
