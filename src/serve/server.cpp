#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gplus::serve {

namespace detail {

// Every ServerStats increment is mirrored into the global registry so
// tests/benches can reconcile server bookkeeping against one uniform
// surface. All serve counters are coordinator-ordered (drain phases 1 and
// 3 run serially in request order), hence deterministic at any lane count;
// the per-type histograms record virtual cost, never wall time. Each
// server resolves its own refs under `ServerConfig::metrics_scope`: the
// default "" scope keeps the historical process-wide "serve.*" names,
// while cluster replicas get disjoint "serve.s<i>.r<j>.*" slices that
// reconcile one-to-one against that replica's ServerStats.
struct ServeMetricsRefs {
  obs::Counter& accepted;
  obs::Counter& rejected;
  obs::Counter& served;
  obs::Counter& shed;
  obs::Counter& deadline_exceeded;
  obs::Counter& fault_injected;
  obs::Counter& stale_served;
  obs::Counter& unavailable;
  obs::Gauge& queue_depth;
  std::array<obs::Counter*, kServeStatusCount> status;
  std::array<obs::Histogram*, kRequestTypeCount> cost;
};

}  // namespace detail

namespace {

// Requests per chunk in the drain's parallel miss pass.
constexpr std::size_t kBatchGrain = 64;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::shared_ptr<detail::ServeMetricsRefs> resolve_serve_metrics(
    const std::string& scope) {
  auto& reg = obs::MetricsRegistry::global();
  const std::string prefix =
      scope.empty() ? "serve." : "serve." + scope + ".";
  auto out = std::make_shared<detail::ServeMetricsRefs>(
      detail::ServeMetricsRefs{
          reg.counter(prefix + "accepted"),
          reg.counter(prefix + "rejected"),
          reg.counter(prefix + "served"),
          reg.counter(prefix + "shed"),
          reg.counter(prefix + "deadline_exceeded"),
          reg.counter(prefix + "fault_injected"),
          reg.counter(prefix + "stale_served"),
          reg.counter(prefix + "unavailable"),
          reg.gauge(prefix + "queue.depth"),
          {},
          {},
      });
  for (std::size_t s = 0; s < kServeStatusCount; ++s) {
    const std::string name =
        prefix + "status." +
        std::string(serve_status_name(static_cast<ServeStatus>(s)));
    out->status[s] = &reg.counter(name);
  }
  // Virtual-cost buckets: 1 dispatch unit up through BFS-sized walks.
  const std::vector<std::uint64_t> bounds{1,   2,   4,    8,    16,   32,
                                          64,  128, 256,  512,  1024, 4096,
                                          16384, 65536};
  for (std::size_t t = 0; t < kRequestTypeCount; ++t) {
    const std::string name =
        prefix + "cost." +
        std::string(request_type_name(static_cast<RequestType>(t)));
    out->cost[t] = &reg.histogram(name, bounds);
  }
  return out;
}

}  // namespace

QueryServer::QueryServer(const SnapshotView* snapshot, ServerConfig config)
    : config_(config),
      metrics_(resolve_serve_metrics(config.metrics_scope)),
      cache_(config.cache_capacity, config.cache_shards,
             config.metrics_scope) {
  if (snapshot != nullptr) engine_.emplace(snapshot, config_.engine);
  queue_.reserve(config_.queue_capacity);
}

std::size_t QueryServer::find_victim(Priority incoming) const noexcept {
  int lowest = static_cast<int>(incoming);
  for (const Pending& p : queue_) {
    if (p.shed) continue;
    lowest = std::min(lowest, static_cast<int>(p.request.priority));
  }
  if (lowest >= static_cast<int>(incoming)) return queue_.size();
  for (std::size_t i = queue_.size(); i-- > 0;) {
    const Pending& p = queue_[i];
    if (!p.shed && static_cast<int>(p.request.priority) == lowest) return i;
  }
  return queue_.size();
}

ServeStatus QueryServer::submit(const Request& request, bool inject_fault) {
  detail::ServeMetricsRefs& metrics = *metrics_;
  Request admitted = request;
  const auto cls = static_cast<std::size_t>(admitted.priority) % kPriorityCount;
  if (admitted.cost_budget == 0) {
    admitted.cost_budget = config_.default_cost_budget[cls];
  }
  if (live_ >= effective_capacity()) {
    // Full: shed the most recent queued request of the lowest class
    // strictly below this one, or reject when nothing outranked is queued.
    const std::size_t victim = find_victim(admitted.priority);
    if (victim == queue_.size()) {
      ++stats_.rejected;
      ++stats_.rejected_by_class[cls];
      metrics.rejected.add(1);
      // Rejection is this request's terminal status — it never drains.
      metrics.status[static_cast<std::size_t>(ServeStatus::kRejected)]->add(1);
      return ServeStatus::kRejected;
    }
    Pending& loser = queue_[victim];
    loser.shed = 1;
    --live_;
    ++stats_.shed;
    ++stats_.shed_by_class[static_cast<std::size_t>(loser.request.priority) %
                           kPriorityCount];
    metrics.shed.add(1);
  }
  queue_.push_back(
      Pending{admitted, 0, static_cast<std::uint8_t>(inject_fault ? 1 : 0)});
  ++live_;
  ++stats_.accepted;
  ++stats_.admitted_by_class[cls];
  metrics.accepted.add(1);
  return ServeStatus::kOk;
}

void QueryServer::rebind(const SnapshotView* snapshot) {
  if (snapshot == nullptr) {
    engine_.reset();
    return;
  }
  engine_.emplace(snapshot, config_.engine);
}

void QueryServer::drain(std::vector<Response>& responses,
                        std::vector<std::uint64_t>* latency_ns) {
  const std::size_t batch = queue_.size();
  responses.resize(batch);
  if (latency_ns != nullptr) latency_ns->assign(batch, 0);
  if (batch == 0) return;

  detail::ServeMetricsRefs& metrics = *metrics_;
  metrics.queue_depth.set(static_cast<std::int64_t>(batch));
  auto& trace = obs::TraceLog::global();
  obs::TraceLog::Scope drain_span(trace, "serve.drain");

  const bool degraded = !engine_.has_value();

  // Phase 1 (coordinator, request order): terminal answers for shed and
  // fault-marked requests, cache probes for the rest. Hits answer from the
  // cached payload (kStaleCache while degraded); misses queue for the
  // parallel pass — or, degraded, answer kUnavailable on the spot.
  miss_index_.clear();
  for (std::size_t i = 0; i < batch; ++i) {
    const Pending& p = queue_[i];
    Response& r = responses[i];
    r.status = ServeStatus::kOk;
    r.flags = 0;
    r.cost = 0;
    r.payload.clear();
    ++stats_.per_type[static_cast<std::size_t>(p.request.type) %
                      kRequestTypeCount];
    if (p.shed) {
      r.status = ServeStatus::kShed;
      continue;
    }
    if (p.fault) {
      r.status = ServeStatus::kFaultInjected;
      ++stats_.fault_injected;
      metrics.fault_injected.add(1);
      continue;
    }
    if (cacheable(p.request.type)) {
      const std::uint64_t start = latency_ns != nullptr ? now_ns() : 0;
      if (cache_.lookup(request_key(p.request), r.payload, degraded)) {
        r.status = degraded ? ServeStatus::kStaleCache : ServeStatus::kOk;
        if (degraded) {
          ++stats_.stale_served;
          metrics.stale_served.add(1);
        }
        if (latency_ns != nullptr) (*latency_ns)[i] = now_ns() - start;
        continue;
      }
    }
    if (degraded) {
      r.status = ServeStatus::kUnavailable;
      ++stats_.unavailable;
      metrics.unavailable.add(1);
      continue;
    }
    miss_index_.push_back(static_cast<std::uint32_t>(i));
  }

  // Phase 2 (parallel): execute the misses. Pure per-slot writes on the
  // static chunk grid — payloads are lane-count independent.
  core::parallel_for(
      miss_index_.size(), kBatchGrain,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          const std::uint32_t i = miss_index_[j];
          const std::uint64_t start = latency_ns != nullptr ? now_ns() : 0;
          engine_->execute(queue_[i].request, responses[i]);
          if (latency_ns != nullptr) (*latency_ns)[i] = now_ns() - start;
        }
      });

  // Phase 3 (coordinator, request order): fill the cache from the misses
  // and tally outcome counters — serial, so counter state is lane-count
  // independent too.
  for (const std::uint32_t i : miss_index_) {
    const Request& q = queue_[i].request;
    Response& r = responses[i];
    if (r.status == ServeStatus::kDeadlineExceeded) {
      ++stats_.deadline_exceeded;
      metrics.deadline_exceeded.add(1);
    }
    // Virtual execution cost — deterministic, unlike wall latency.
    metrics.cost[static_cast<std::size_t>(q.type) % kRequestTypeCount]->record(
        r.cost);
    if (cacheable(q.type) && r.status == ServeStatus::kOk) {
      cache_.insert(request_key(q), r.payload);
    }
  }

  // Every drained request reached exactly one terminal status; tally them
  // all (and the batch's summed virtual cost, which advances the trace
  // clock) on the coordinator in request order.
  std::uint64_t batch_cost = 0;
  for (std::size_t i = 0; i < batch; ++i) {
    const Response& r = responses[i];
    metrics.status[static_cast<std::size_t>(r.status) % kServeStatusCount]->add(
        1);
    batch_cost += r.cost;
  }
  trace.advance(batch_cost);
  drain_span.attr("batch", batch);
  drain_span.attr("misses", miss_index_.size());
  drain_span.attr("cost", batch_cost);

  stats_.served += batch;
  metrics.served.add(batch);
  queue_.clear();
  live_ = 0;
}

ServerStats QueryServer::stats_snapshot() const {
  ServerStats s = stats_;
  s.cache = cache_.stats();
  return s;
}

}  // namespace gplus::serve
