// Request engine: the typed query API served over a snapshot.
//
// Each request type mirrors a measurement the paper (or the follow-up
// crawls in PAPERS.md) makes per profile: attribute lookups (§3.1–3.2),
// circle adjacency with the service's 10k cap (§2.2), reciprocity (§3.3.2),
// degrees (§3.3.1), bounded shortest-path probes (Table 4) and celebrity
// top-k (Table 1). Execution is a pure function of (request, snapshot,
// engine config): no hidden state, so requests may run on any thread in
// any order and still produce identical responses — the property the
// batched server exploits for its determinism guarantee.
//
// Responses carry a little-endian encoded payload (`Response::payload`)
// rather than rich structs: concatenating encoded responses in request
// order yields the byte-identical response stream the load harness
// checksums at every worker count.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/types.h"
#include "serve/snapshot.h"

namespace gplus::serve {

/// Query kinds (wire-stable ids; append only).
enum class RequestType : std::uint8_t {
  kGetProfile = 0,   // packed profile + both degrees
  kGetOutCircle,     // one page of "in user's circles" (out-neighbors)
  kGetInCircle,      // one page of "have user in circles" (in-neighbors)
  kReciprocity,      // out-degree + reciprocal-edge count
  kDegree,           // in/out degree pair
  kShortestPath,     // bounded bidirectional BFS user -> target
  kTopK,             // global top-k users by in-degree
  kSuggest,          // friend-of-friend suggestions with reciprocation score
};
inline constexpr std::size_t kRequestTypeCount = 8;

/// Display name ("get-profile", ...).
std::string_view request_type_name(RequestType type) noexcept;

/// Request priority classes for load shedding: under queue pressure the
/// server sheds the lowest class first (DESIGN.md §10). Wire-stable ids.
enum class Priority : std::uint8_t {
  kLow = 0,     // background / best-effort (batch refresh, prefetch)
  kNormal = 1,  // interactive default
  kHigh = 2,    // latency-critical (never shed in favor of lower classes)
};
inline constexpr std::size_t kPriorityCount = 3;

/// One query. `target` is the ShortestPath destination; `offset`/`limit`
/// page the circle lists and bound TopK/Suggest. `priority` steers load
/// shedding;
/// `cost_budget` is the per-request deadline in deterministic virtual cost
/// units (0 = unlimited): a pure function of (request, snapshot), never of
/// wall-clock, so deadline outcomes are bit-identical at any GPLUS_THREADS.
struct Request {
  RequestType type = RequestType::kGetProfile;
  graph::NodeId user = 0;
  graph::NodeId target = 0;
  std::uint32_t offset = 0;
  std::uint32_t limit = 0;
  Priority priority = Priority::kNormal;
  std::uint32_t cost_budget = 0;
};

/// Per-request outcome, FetchStatus-style: an explicit error channel
/// instead of silent failure. kRejected is produced at submit time by the
/// server's bounded queue, never by the engine; kShed/kStaleCache/
/// kUnavailable/kFaultInjected are produced by the serving layer at drain
/// time (DESIGN.md §10). Wire-stable ids; append only.
enum class ServeStatus : std::uint8_t {
  kOk = 0,
  kInvalidNode,        // user/target id out of range
  kInvalidRequest,     // unknown type or malformed paging
  kRejected,           // bounded queue full — retry later
  kDeadlineExceeded,   // virtual-cost budget exhausted; payload is partial
  kShed,               // dropped from the queue for a higher-priority admit
  kStaleCache,         // degraded mode: answered from cache, may be stale
  kUnavailable,        // no snapshot bound and no cached answer
  kFaultInjected,      // chaos schedule failed this execution
};
inline constexpr std::size_t kServeStatusCount = 9;

/// Display name ("ok", "invalid-node", ...).
std::string_view serve_status_name(ServeStatus status) noexcept;

/// Response flag bits.
inline constexpr std::uint8_t kResponsePartial = 1U << 0;
/// Set by the sharded cluster when one or more shards were dark (no live
/// replica) while this answer was assembled: the payload is a degraded
/// best-effort over the shards that were up (DESIGN.md §13).
inline constexpr std::uint8_t kResponseShardDark = 1U << 1;
/// Set by the sharded cluster when a shard with live replicas stayed
/// unreachable over the faulty transport (timeouts/retries/hedges all
/// exhausted, or every replica breaker-open): the answer is a quorum-style
/// partial gather over the shards that responded (DESIGN.md §15).
inline constexpr std::uint8_t kResponseQuorumPartial = 1U << 2;

/// Response: status + encoded payload (empty unless kOk or a partial
/// kDeadlineExceeded). Payload layouts are documented in DESIGN.md §9;
/// all integers little-endian. `cost` is the deterministic virtual cost
/// the execution spent (0 for cache hits and unexecuted requests).
struct Response {
  ServeStatus status = ServeStatus::kOk;
  std::uint8_t flags = 0;
  std::vector<std::uint8_t> payload;
  std::uint64_t cost = 0;

  bool partial() const noexcept { return (flags & kResponsePartial) != 0; }
};

/// Distance sentinel for unreachable / budget-exhausted path probes.
inline constexpr std::uint32_t kPathUnreachable = 0xFFFFFFFF;

/// Engine knobs (the service-mirroring caps live here, not in the
/// snapshot, so one snapshot can back differently-configured servers).
struct EngineConfig {
  /// Circle entries beyond this are unobtainable (the §2.2 10k cap).
  std::uint32_t circle_cap = 10'000;
  /// Largest circle page per request.
  std::uint32_t max_page = 1'000;
  /// ShortestPath gives up beyond this many hops.
  std::uint32_t path_max_hops = 10;
  /// ShortestPath gives up after expanding this many nodes.
  std::uint64_t path_node_budget = 100'000;
  /// Largest TopK list served.
  std::uint32_t topk_cap = 100;
  /// Largest Suggest list served (DESIGN.md §14).
  std::uint32_t suggest_cap = 50;
  /// Suggest expands at most this many 1-hop neighbors (ascending id).
  std::uint32_t suggest_frontier_cap = 256;
  /// Suggest stops scanning 2-hop edges beyond this budget (the
  /// path_node_budget analogue: a hard cap, not a deadline).
  std::uint64_t suggest_expand_budget = 65'536;
};

/// Stateless-per-request executor. Holds the snapshot view plus a
/// precomputed top-`topk_cap` in-degree ranking (built once, immutable).
/// Thread-safe: `execute` only reads.
///
/// Deadline model: execution meters deterministic virtual cost — 1 unit
/// to dispatch any request, plus 1 unit per circle/top-k entry emitted
/// and 1 unit per BFS node settled. When a request carries a non-zero
/// `cost_budget` and the meter would pass it, the expensive loop aborts:
/// status kDeadlineExceeded, the partial flag set, and whatever payload
/// was built so far kept (circle/top-k pages patch their counts; path
/// probes report best-so-far distance). Cheap O(1) requests cost exactly
/// 1 and therefore always beat any positive deadline.
class RequestEngine {
 public:
  /// Virtual-cost meter for one execution.
  struct Meter {
    std::uint64_t budget = ~std::uint64_t{0};
    std::uint64_t spent = 0;
    /// Charges `units`; false once the budget is passed.
    bool charge(std::uint64_t units) noexcept {
      spent += units;
      return spent <= budget;
    }
  };

  /// `snapshot` must outlive the engine.
  RequestEngine(const SnapshotView* snapshot, EngineConfig config = {});

  /// Executes one request. Appends nothing on error; `response.payload`
  /// is reused (cleared, capacity kept) for allocation-free hot paths.
  void execute(const Request& request, Response& response) const;

  const EngineConfig& config() const noexcept { return config_; }
  const SnapshotView& snapshot() const noexcept { return *snapshot_; }

 private:
  void get_profile(graph::NodeId u, Response& r) const;
  void get_circle(const Request& q, bool out_list, Response& r,
                  Meter& meter) const;
  void reciprocity(graph::NodeId u, Response& r) const;
  void degree(graph::NodeId u, Response& r) const;

  const SnapshotView* snapshot_;
  EngineConfig config_;
  /// Precomputed (node, in_degree) ranking, descending degree, ties by
  /// ascending id — the Table 1 ordering.
  std::vector<std::pair<graph::NodeId, std::uint64_t>> topk_;
  /// Global maximum in-degree (the Suggest hub-feature normalizer),
  /// found during the same construction walk that builds topk_.
  std::uint64_t max_in_degree_ = 0;
};

/// 64-bit cache/dedup key of a request (splitmix64-mixed fields).
/// Priority and cost budget are deliberately excluded: they shape *how*
/// a request runs, not *what* it asks, so all deadline/priority variants
/// of the same logical query share one cache slot.
std::uint64_t request_key(const Request& request) noexcept;

}  // namespace gplus::serve
