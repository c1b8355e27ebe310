#include "serve/cluster.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/row_source.h"
#include "serve/suggest.h"

namespace gplus::serve {

namespace {

// Every scalar ClusterStats count, once, and its name under
// "serve.cluster.". The per-status cells follow the table in the store and
// are exported as "serve.cluster.status.<status>". All counts are taken on
// the coordinator in admission order, hence deterministic at any lane
// count.
constexpr obs::CounterField<ClusterStats> kCounters[] = {
    {"accepted", &ClusterStats::accepted},
    {"rejected", &ClusterStats::rejected},
    {"served", &ClusterStats::served},
    {"scatter", &ClusterStats::scatter},
    {"messages", &ClusterStats::messages},
    {"dark", &ClusterStats::dark_answers},
    {"quorum", &ClusterStats::quorum_answers},
};
template <auto Field>
constexpr std::size_t kCell = obs::cell_of(kCounters, Field);
constexpr std::size_t kStatusCell = std::size(kCounters);

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
      counts_(kStatusCell + kServeStatusCount),
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
  replica_reversed_.assign(count, 0);

  dark_.assign(views_.size(), 0);

  // Per-shard TopK over owned nodes and the global degree arrays, all
  // shards in one walk. Owned degrees are globally correct (the shard
  // holds every edge of an owned node), so merging the lists recovers the
  // engine's list and the arrays equal the engine's degrees.
  TopKSelector select(views_.size(), config_.server.engine.topk_cap);
  out_degree_.resize(n);
  in_degree_.resize(n);
  for (graph::NodeId u = 0; u < n; ++u) {
    const std::size_t s = routing_->owner[u];
    if (s >= views_.size()) {
      throw std::invalid_argument("cluster: node owner outside the shards");
    }
    out_degree_[u] = static_cast<std::uint32_t>(views_[s]->out_degree(u));
    in_degree_[u] = static_cast<std::uint32_t>(views_[s]->in_degree(u));
    select.offer(s, u, in_degree_[u]);
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

ClusterStats ClusterServer::stats_snapshot() const {
  ClusterStats s;
  counts_.read_fields(kCounters, s);
  counts_.read_array(kStatusCell, s.by_status);
  return s;
}

void ClusterServer::export_counts() {
  counts_.export_fields(kCounters, "serve.cluster.");
  for (std::size_t s = 0; s < kServeStatusCount; ++s) {
    counts_.export_cell(
        kStatusCell + s,
        "serve.cluster.status." +
            std::string(serve_status_name(static_cast<ServeStatus>(s))));
  }
  // Router rejections never drain, so they count toward the rejected
  // status here rather than in by_status.
  counts_.export_cell(kCell<&ClusterStats::rejected>,
                      "serve.cluster.status.rejected");
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
  const ClusterStats router = stats_snapshot();
  total.accepted = router.accepted;
  total.rejected = router.rejected;
  total.served = router.served;
  const auto status_of = [&](ServeStatus st) {
    return router.by_status[static_cast<std::size_t>(st)];
  };
  total.shed = status_of(ServeStatus::kShed);
  total.deadline_exceeded = status_of(ServeStatus::kDeadlineExceeded);
  total.fault_injected = status_of(ServeStatus::kFaultInjected);
  total.unavailable = status_of(ServeStatus::kUnavailable);
  return total;
}

ServeStatus ClusterServer::submit(const Request& request, bool inject_fault) {
  if (!counts_.exported()) export_counts();
  const auto reject = [this] {
    counts_.add(kCell<&ClusterStats::rejected>);
    return ServeStatus::kRejected;
  };
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
    } else if (router_queued_ >= queue_capacity()) {
      return reject();
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
      if (qs.submit(slot.request) == ServeStatus::kRejected) return reject();
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
  counts_.add(kCell<&ClusterStats::accepted>);
  return ServeStatus::kOk;
}

void ClusterServer::drain(std::vector<Response>& responses) {
  const std::size_t batch = pending_.size();
  responses.resize(batch);
  if (batch == 0) {
    // Breaker cooldowns advance per drain tick even when idle — an open
    // breaker must eventually half-open with no traffic behind it.
    if (transport_.enabled()) transport_.tick();
    return;
  }

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
      replicas_[idx].drain(replica_responses_[idx]);
      if (transport_.enabled() &&
          transport_.reorder_batch(s, r, replica_responses_[idx].size())) {
        replica_reversed_[idx] = 1;
        std::reverse(replica_responses_[idx].begin(),
                     replica_responses_[idx].end());
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
          execute_scatter(pending_[i].request, pending_[i].seq, responses[i],
                          scatter_messages_[j], scatter_rpcs_[j]);
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
    counts_.add(kStatusCell +
                static_cast<std::size_t>(resp.status) % kServeStatusCount);
    if ((resp.flags & kResponseShardDark) != 0) {
      counts_.add(kCell<&ClusterStats::dark_answers>);
    }
    if ((resp.flags & kResponseQuorumPartial) != 0) {
      counts_.add(kCell<&ClusterStats::quorum_answers>);
    }
  }
  std::uint64_t message_total = 0;
  for (const std::uint64_t m : scatter_messages_) message_total += m;
  counts_.add(kCell<&ClusterStats::messages>, message_total);
  counts_.add(kCell<&ClusterStats::scatter>, scatter_slots_.size());
  counts_.add(kCell<&ClusterStats::served>, batch);

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
                    out_degree_.data(), in_degree_.data(), shard_count(),
                    transport, seq, &rpcs, &messages});
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

}  // namespace gplus::serve
