#include "serve/server.h"

#include <algorithm>
#include <string>

#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gplus::serve {

namespace {

// Requests per chunk in the drain's parallel miss pass. Kept at 64 for
// memory: at 1, a drain's <= 64 misses spread over every lane, so every
// lane's per-request scratch (serve/node_table.h) is live at once.
// Measured on serve-mmap (gplus_bench, 4 vCPUs, one 10 s run each): peak
// RSS 39.2 MiB against 31.9 MiB (+23%), qps 161k either way.
constexpr std::size_t kBatchGrain = 64;

// Every scalar ServerStats count, once, and its name under the server's
// "serve[.<scope>]." prefix. The per-type and per-class arrays follow the
// table in the store, unexported.
constexpr obs::CounterField<ServerStats> kCounters[] = {
    {"accepted", &ServerStats::accepted},
    {"rejected", &ServerStats::rejected},
    {"served", &ServerStats::served},
    {"shed", &ServerStats::shed},
    {"deadline_exceeded", &ServerStats::deadline_exceeded},
    {"fault_injected", &ServerStats::fault_injected},
    {"stale_served", &ServerStats::stale_served},
    {"unavailable", &ServerStats::unavailable},
};
template <auto Field>
constexpr std::size_t kCell = obs::cell_of(kCounters, Field);
constexpr std::size_t kPerTypeCell = std::size(kCounters);
constexpr std::size_t kAdmittedCell = kPerTypeCell + kRequestTypeCount;
constexpr std::size_t kRejectedCell = kAdmittedCell + kPriorityCount;
constexpr std::size_t kShedCell = kRejectedCell + kPriorityCount;
constexpr std::size_t kCellCount = kShedCell + kPriorityCount;

}  // namespace

QueryServer::QueryServer(const SnapshotView* snapshot, ServerConfig config)
    : config_(config),
      counts_(kCellCount),
      cache_(config.cache_capacity, config.cache_shards,
             config.metrics_scope) {
  const std::string prefix = config_.metrics_scope.empty()
                                 ? "serve."
                                 : "serve." + config_.metrics_scope + ".";
  counts_.export_fields(kCounters, prefix);
  auto& reg = obs::MetricsRegistry::global();
  queue_depth_ = &reg.gauge(prefix + "queue.depth");
  for (std::size_t s = 0; s < kServeStatusCount; ++s) {
    status_[s] = &reg.counter(
        prefix + "status." +
        std::string(serve_status_name(static_cast<ServeStatus>(s))));
  }
  // Virtual-cost buckets: 1 dispatch unit up through BFS-sized walks.
  const std::vector<std::uint64_t> bounds{1,   2,   4,    8,    16,   32,
                                          64,  128, 256,  512,  1024, 4096,
                                          16384, 65536};
  for (std::size_t t = 0; t < kRequestTypeCount; ++t) {
    cost_[t] = &reg.histogram(
        prefix + "cost." +
            std::string(request_type_name(static_cast<RequestType>(t))),
        bounds);
  }
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
      counts_.add(kCell<&ServerStats::rejected>);
      counts_.add(kRejectedCell + cls);
      // Rejection is this request's terminal status — it never drains.
      status_[static_cast<std::size_t>(ServeStatus::kRejected)]->add(1);
      return ServeStatus::kRejected;
    }
    Pending& loser = queue_[victim];
    loser.shed = 1;
    --live_;
    counts_.add(kCell<&ServerStats::shed>);
    counts_.add(kShedCell + static_cast<std::size_t>(loser.request.priority) %
                                kPriorityCount);
  }
  queue_.push_back(
      Pending{admitted, 0, static_cast<std::uint8_t>(inject_fault ? 1 : 0)});
  ++live_;
  counts_.add(kCell<&ServerStats::accepted>);
  counts_.add(kAdmittedCell + cls);
  return ServeStatus::kOk;
}

void QueryServer::rebind(const SnapshotView* snapshot) {
  if (snapshot == nullptr) {
    engine_.reset();
    return;
  }
  engine_.emplace(snapshot, config_.engine);
}

void QueryServer::drain(std::vector<Response>& responses) {
  const std::size_t batch = queue_.size();
  responses.resize(batch);
  if (batch == 0) return;

  queue_depth_->set(static_cast<std::int64_t>(batch));
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
    counts_.add(kPerTypeCell + static_cast<std::size_t>(p.request.type) %
                                   kRequestTypeCount);
    if (p.shed) {
      r.status = ServeStatus::kShed;
      continue;
    }
    if (p.fault) {
      r.status = ServeStatus::kFaultInjected;
      counts_.add(kCell<&ServerStats::fault_injected>);
      continue;
    }
    if (cacheable(p.request.type)) {
      if (cache_.lookup(request_key(p.request), r.payload, degraded)) {
        r.status = degraded ? ServeStatus::kStaleCache : ServeStatus::kOk;
        if (degraded) counts_.add(kCell<&ServerStats::stale_served>);
        continue;
      }
    }
    if (degraded) {
      r.status = ServeStatus::kUnavailable;
      counts_.add(kCell<&ServerStats::unavailable>);
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
          engine_->execute(queue_[i].request, responses[i]);
        }
      });

  // Phase 3 (coordinator, request order): fill the cache from the misses
  // and tally outcome counters — serial, so counter state is lane-count
  // independent too.
  for (const std::uint32_t i : miss_index_) {
    const Request& q = queue_[i].request;
    Response& r = responses[i];
    if (r.status == ServeStatus::kDeadlineExceeded) {
      counts_.add(kCell<&ServerStats::deadline_exceeded>);
    }
    // Virtual execution cost — deterministic, unlike wall latency.
    cost_[static_cast<std::size_t>(q.type) % kRequestTypeCount]->record(r.cost);
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
    status_[static_cast<std::size_t>(r.status) % kServeStatusCount]->add(1);
    batch_cost += r.cost;
  }
  trace.advance(batch_cost);
  drain_span.attr("batch", batch);
  drain_span.attr("misses", miss_index_.size());
  drain_span.attr("cost", batch_cost);

  counts_.add(kCell<&ServerStats::served>, batch);
  queue_.clear();
  live_ = 0;
}

ServerStats QueryServer::stats_snapshot() const {
  ServerStats s;
  counts_.read_fields(kCounters, s);
  counts_.read_array(kPerTypeCell, s.per_type);
  counts_.read_array(kAdmittedCell, s.admitted_by_class);
  counts_.read_array(kRejectedCell, s.rejected_by_class);
  counts_.read_array(kShedCell, s.shed_by_class);
  s.cache = cache_.stats();
  return s;
}

}  // namespace gplus::serve
