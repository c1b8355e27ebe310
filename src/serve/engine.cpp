#include "serve/engine.h"

#include <algorithm>

#include "serve/payload.h"
#include "serve/row_source.h"
#include "serve/suggest.h"
#include "stats/rng.h"

namespace gplus::serve {

std::string_view request_type_name(RequestType type) noexcept {
  switch (type) {
    case RequestType::kGetProfile: return "get-profile";
    case RequestType::kGetOutCircle: return "get-out-circle";
    case RequestType::kGetInCircle: return "get-in-circle";
    case RequestType::kReciprocity: return "reciprocity";
    case RequestType::kDegree: return "degree";
    case RequestType::kShortestPath: return "shortest-path";
    case RequestType::kTopK: return "top-k";
    case RequestType::kSuggest: return "suggest";
  }
  return "?";
}

std::string_view serve_status_name(ServeStatus status) noexcept {
  switch (status) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kInvalidNode: return "invalid-node";
    case ServeStatus::kInvalidRequest: return "invalid-request";
    case ServeStatus::kRejected: return "rejected";
    case ServeStatus::kDeadlineExceeded: return "deadline-exceeded";
    case ServeStatus::kShed: return "shed";
    case ServeStatus::kStaleCache: return "stale-cache";
    case ServeStatus::kUnavailable: return "unavailable";
    case ServeStatus::kFaultInjected: return "fault-injected";
  }
  return "?";
}

std::uint64_t request_key(const Request& request) noexcept {
  std::uint64_t state = (static_cast<std::uint64_t>(request.type) << 56) ^
                        (static_cast<std::uint64_t>(request.user) << 24) ^
                        request.target;
  std::uint64_t mixed = stats::splitmix64_next(state);
  state ^= (static_cast<std::uint64_t>(request.offset) << 32) | request.limit;
  return mixed ^ stats::splitmix64_next(state);
}

RequestEngine::RequestEngine(const SnapshotView* snapshot, EngineConfig config)
    : snapshot_(snapshot), config_(config) {
  // Bounded selection of the top-`topk_cap` users by in-degree, built
  // once at engine construction. Walk nodes in degree-rank order: on a
  // compressed snapshot that is a sequential pass over the in-adjacency
  // rows (one varint decode each) instead of random row hops; the
  // selection does not depend on the visit order.
  TopKSelector select(1, config_.topk_cap);
  const std::size_t n = snapshot_->node_count();
  for (std::uint32_t r = 0; r < n; ++r) {
    const graph::NodeId u = snapshot_->rank_to_node(r);
    select.offer(0, u, snapshot_->in_degree(u));
  }
  topk_ = std::move(select.take().front());
  max_in_degree_ = select.max_in_degree();
}

void RequestEngine::execute(const Request& request, Response& response) const {
  response.status = ServeStatus::kOk;
  response.flags = 0;
  response.payload.clear();
  // The virtual clock: 1 unit to dispatch, more charged by the expensive
  // loops below. Deterministic in (request, snapshot) only.
  Meter meter;
  if (request.cost_budget != 0) meter.budget = request.cost_budget;
  meter.charge(1);
  response.cost = 0;
  const std::size_t n = snapshot_->node_count();
  SingleSource rows{snapshot_};
  switch (request.type) {
    case RequestType::kGetProfile:
      if (request.user >= n) break;
      get_profile(request.user, response);
      response.cost = meter.spent;
      return;
    case RequestType::kGetOutCircle:
      if (request.user >= n) break;
      get_circle(request, /*out_list=*/true, response, meter);
      response.cost = meter.spent;
      return;
    case RequestType::kGetInCircle:
      if (request.user >= n) break;
      get_circle(request, /*out_list=*/false, response, meter);
      response.cost = meter.spent;
      return;
    case RequestType::kReciprocity:
      if (request.user >= n) break;
      reciprocity(request.user, response);
      response.cost = meter.spent;
      return;
    case RequestType::kDegree:
      if (request.user >= n) break;
      degree(request.user, response);
      response.cost = meter.spent;
      return;
    case RequestType::kShortestPath:
      if (request.user >= n || request.target >= n) break;
      shortest_path_core(rows, config_, request.user, request.target, response,
                         meter);
      response.cost = meter.spent;
      return;
    case RequestType::kTopK:
      top_k_core(rows, config_, std::span(&topk_, 1), request.limit, response,
                 meter);
      response.cost = meter.spent;
      return;
    case RequestType::kSuggest:
      if (request.user >= n) break;
      suggest_core(rows, config_, max_in_degree_, request, response, meter);
      response.cost = meter.spent;
      return;
    default:
      response.status = ServeStatus::kInvalidRequest;
      response.cost = meter.spent;
      return;
  }
  response.status = ServeStatus::kInvalidNode;
  response.cost = meter.spent;
}

// Payload: user u32, shared u32, gender u8, relationship u8, occupation u8,
// flags u8, country u16, pad u16, in_degree u64, out_degree u64.
void RequestEngine::get_profile(graph::NodeId u, Response& r) const {
  const PackedProfile& p = snapshot_->profile(u);
  put_u32(r.payload, u);
  put_u32(r.payload, p.shared_bits);
  put_u8(r.payload, p.gender);
  put_u8(r.payload, p.relationship);
  put_u8(r.payload, p.occupation);
  put_u8(r.payload, p.flags);
  put_u16(r.payload, p.country);
  put_u16(r.payload, 0);
  put_u64(r.payload, snapshot_->in_degree(u));
  put_u64(r.payload, snapshot_->out_degree(u));
}

// Payload: total u64 (displayed list total, uncapped — the §2.2 estimator
// input), count u32, has_more u8, capped u8, pad u16, count × u32 ids.
// Entries at or beyond `circle_cap` are unobtainable, mirroring the
// service: offset past the visible window yields an empty page.
void RequestEngine::get_circle(const Request& q, bool out_list, Response& r,
                               Meter& meter) const {
  if (q.limit > config_.max_page) {
    r.status = ServeStatus::kInvalidRequest;
    return;
  }
  NeighborScan list =
      out_list ? snapshot_->out_scan(q.user) : snapshot_->in_scan(q.user);
  const std::uint64_t total = list.size();
  const std::uint64_t visible =
      std::min<std::uint64_t>(total, config_.circle_cap);
  const std::uint32_t limit = q.limit == 0 ? config_.max_page : q.limit;
  const std::uint64_t begin = std::min<std::uint64_t>(q.offset, visible);
  const std::uint64_t end = std::min<std::uint64_t>(begin + limit, visible);
  put_u64(r.payload, total);
  put_u32(r.payload, static_cast<std::uint32_t>(end - begin));
  put_u8(r.payload, end < visible ? 1 : 0);
  put_u8(r.payload, total > visible ? 1 : 0);
  put_u16(r.payload, 0);
  // 1 cost unit per entry emitted; a deadline mid-page keeps the entries
  // that fit, patches the count/has_more fields, and flags the partial.
  // The cursor lands on `begin` via the skip table — a page deep into a
  // hub's compressed list costs one block, not a full-list decode.
  std::uint64_t emitted = 0;
  list.skip_to(begin);
  for (std::uint64_t i = begin; i < end; ++i) {
    if (!meter.charge(1)) {
      r.status = ServeStatus::kDeadlineExceeded;
      r.flags |= kResponsePartial;
      patch_u32(r.payload, 8, static_cast<std::uint32_t>(emitted));
      r.payload[12] = 1;  // entries remain past the aborted point
      return;
    }
    graph::NodeId id = 0;
    list.next(id);
    put_u32(r.payload, id);
    ++emitted;
  }
}

// Payload: out_degree u64, reciprocal u64.
void RequestEngine::reciprocity(graph::NodeId u, Response& r) const {
  put_u64(r.payload, snapshot_->out_degree(u));
  put_u64(r.payload, snapshot_->reciprocal_out_degree(u));
}

// Payload: in_degree u64, out_degree u64.
void RequestEngine::degree(graph::NodeId u, Response& r) const {
  put_u64(r.payload, snapshot_->in_degree(u));
  put_u64(r.payload, snapshot_->out_degree(u));
}

}  // namespace gplus::serve
