// Batched query server: bounded admission queue + deterministic parallel
// execution over the shared worker pool.
//
// Shape: clients `submit()` requests into a bounded queue; a full queue
// either rejects explicitly (`ServeStatus::kRejected`) or — when the
// incoming request outranks something already queued — sheds the
// lowest-priority queued request (`ServeStatus::kShed`) to make room.
// Overload is always a visible, counted signal, never a silent drop and
// never an unbounded buffer. A `drain()` call then serves everything
// queued:
//
//   1. coordinator pass, request order: answer shed and fault-marked
//      requests terminally, probe the result cache for the rest; hits are
//      answered immediately, misses collected;
//   2. parallel pass: misses execute on the `core/parallel` chunk grid —
//      engine execution is pure, each worker writes only its own response
//      slot, so payloads are identical at any lane count;
//   3. coordinator pass, request order: cacheable miss results are
//      inserted into the LRU and outcome counters tallied.
//
// Because every cache/counter mutation happens on the coordinator in
// request order, response payloads AND final cache/counter state are
// bit-identical under GPLUS_THREADS=1 and GPLUS_THREADS=64 — the
// serving-layer extension of the runtime's determinism contract
// (DESIGN.md §7, §9, §10).
//
// Degraded mode: a server whose snapshot has been unbound (`rebind`
// nullptr — e.g. the active generation was killed and no candidate passed
// validation) keeps draining. Cacheable requests that hit the cache are
// answered from it with kStaleCache; everything else gets kUnavailable.
// No request ever waits on a snapshot that may never come back.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/cache.h"
#include "serve/engine.h"

namespace gplus::serve {

/// Server knobs.
struct ServerConfig {
  /// Bounded admission queue: submits past this are shed-or-rejected.
  std::size_t queue_capacity = 4096;
  /// Result-cache entries (0 disables) and shards.
  std::size_t cache_capacity = 1 << 16;
  std::size_t cache_shards = 16;
  /// Per-priority default deadline (virtual cost units, 0 = unlimited),
  /// applied at submit to requests that carry no explicit cost_budget.
  std::array<std::uint32_t, kPriorityCount> default_cost_budget{};
  /// Registry name qualifier. "" exports this server's counts under the
  /// "serve.*" names, summed with every other default-scope server; a
  /// cluster replica sets e.g. "s2.r0" so its counts are exported under
  /// "serve.s2.r0.*" — one slice per replica, never double-counted across
  /// shards (DESIGN.md §13).
  std::string metrics_scope;
  EngineConfig engine;
};

/// Lifetime counters, built from the server's counter store by
/// stats_snapshot(). `accepted` counts queue admissions (some of which may
/// later be shed); every admitted request reaches exactly one terminal
/// status, so accepted == served + currently-queued at all times.
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t fault_injected = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t unavailable = 0;
  std::array<std::uint64_t, kRequestTypeCount> per_type{};
  std::array<std::uint64_t, kPriorityCount> admitted_by_class{};
  std::array<std::uint64_t, kPriorityCount> rejected_by_class{};
  std::array<std::uint64_t, kPriorityCount> shed_by_class{};
  CacheStats cache;

  bool operator==(const ServerStats&) const = default;
};

/// One server over one (rebindable) snapshot. Submit/drain/rebind are
/// coordinator-thread operations (not internally synchronized); the
/// parallelism lives inside drain(), on the shared pool.
class QueryServer {
 public:
  /// `snapshot` must outlive the server (or its next rebind). nullptr
  /// starts the server degraded.
  explicit QueryServer(const SnapshotView* snapshot, ServerConfig config = {});

  /// Admits one request; a full queue sheds the lowest-priority queued
  /// request strictly below this one (most recent first) to make room, or
  /// rejects when nothing outranked is queued. The only non-kOk value
  /// returned here is kRejected — a shed victim still gets its kShed
  /// response from the next drain. `inject_fault` marks the request for a
  /// terminal kFaultInjected at drain (the chaos schedule's engine fault).
  ServeStatus submit(const Request& request, bool inject_fault = false);

  /// Queued requests still awaiting a real answer (excludes shed victims).
  std::size_t pending() const noexcept { return live_; }
  /// Queue slots occupied (shed victims included — they still need their
  /// terminal response).
  std::size_t queued() const noexcept { return queue_.size(); }
  std::size_t queue_capacity() const noexcept { return config_.queue_capacity; }

  /// Chaos hook: caps the effective queue capacity below the configured
  /// one (0 = no pressure). Takes effect on subsequent submits.
  void set_queue_pressure(std::size_t capacity) noexcept {
    pressure_ = capacity;
  }

  /// Rebinds the server to a different snapshot (hot-swap) or to nullptr
  /// (degraded mode). Must be called between drains — i.e. queued() == 0 —
  /// so no in-flight request straddles generations; the SnapshotManager
  /// enforces that. The cache is NOT touched here: the resilience layer
  /// decides whether entries survive (they do across kill→degraded, they
  /// don't across an epoch change).
  void rebind(const SnapshotView* snapshot);

  /// Serves every queued request; `responses[i]` answers the i-th accepted
  /// request since the last drain. Response objects are reused across
  /// drains (capacity kept) for allocation-free steady state. The drain
  /// reads no clock: its output depends only on the submitted requests and
  /// the snapshot. Serving latency is measured by the caller, from the
  /// submit() that admitted a request to the return of the drain() that
  /// answered it (queue wait and every drain phase included) — the one
  /// definition run_closed_loop and the repo benchmark use.
  void drain(std::vector<Response>& responses);

  /// Coherent one-call copy of the lifetime counters, cache statistics
  /// included. Submit/drain/stats_snapshot are coordinator-thread
  /// operations, so a snapshot taken between drains is consistent: no
  /// field can move while it is being assembled.
  ServerStats stats_snapshot() const;

  const ServerConfig& config() const noexcept { return config_; }
  /// The bound engine, or nullptr while degraded.
  const RequestEngine* engine() const noexcept {
    return engine_ ? &*engine_ : nullptr;
  }
  bool degraded() const noexcept { return !engine_.has_value(); }

  ShardedLruCache& cache() noexcept { return cache_; }

 private:
  struct Pending {
    Request request;
    std::uint8_t shed = 0;   // terminal kShed at drain
    std::uint8_t fault = 0;  // terminal kFaultInjected at drain
  };

  static bool cacheable(RequestType type) noexcept {
    return type == RequestType::kGetProfile ||
           type == RequestType::kShortestPath ||
           type == RequestType::kSuggest;
  }

  std::size_t effective_capacity() const noexcept {
    return pressure_ != 0 && pressure_ < config_.queue_capacity
               ? pressure_
               : config_.queue_capacity;
  }

  /// Index of the shed victim for an arrival of `incoming` priority: the
  /// most recent live entry of the lowest occupied class strictly below
  /// it. Returns queue size when nothing qualifies.
  std::size_t find_victim(Priority incoming) const noexcept;

  ServerConfig config_;
  obs::CounterStore counts_;  // every ServerStats count except `cache`
  // Registry-owned metrics with no ServerStats field, under the same
  // scope: the terminal-status tallies (rejections included), the
  // per-type virtual-cost histograms and the queue depth. Written on the
  // coordinator in request order, so deterministic at any lane count.
  obs::Gauge* queue_depth_ = nullptr;
  std::array<obs::Counter*, kServeStatusCount> status_{};
  std::array<obs::Histogram*, kRequestTypeCount> cost_{};
  std::optional<RequestEngine> engine_;
  ShardedLruCache cache_;
  std::vector<Pending> queue_;
  std::size_t live_ = 0;       // queued entries not marked shed
  std::size_t pressure_ = 0;   // chaos queue-pressure override (0 = none)
  // Drain scratch, reused across batches.
  std::vector<std::uint32_t> miss_index_;
};

}  // namespace gplus::serve
