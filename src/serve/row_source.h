// Row sources and the request-family cores that read them (DESIGN.md
// §13–14).
//
// ShortestPath, TopK and Suggest each have exactly one core, a template
// over a row source, instantiated twice: over SingleSource by the
// unsharded RequestEngine and over ShardSource by the cluster router's
// scatter. A core never asks which one it runs on. Only the source knows
// about shards, the faulty transport and message counting, which is why
// the cluster's charges and payload bytes equal the engine's whenever
// every shard is reachable.
//
// The row source interface:
//   blocked(u), blocked_shard(s)  response-flag bits to degrade with when
//                                 u's owner shard (shard s) is unreadable;
//                                 0 when readable
//   at(u)                         the view holding u's complete rows
//   out_degree(u), in_degree(u)   u's global degrees: never a shard read,
//                                 a message, an rpc or a cost unit
//   touch(u), touch_shard(s)      note a read from u's owner (shard s)
//   end_phase()                   one message per distinct shard touched
//                                 since the last end_phase
//   probe_all()                   eager transport schedule: one rpc per
//                                 live shard now, keyed (seq, 0, shard)
//                                 — Suggest and TopK
//   next_level()                  lazy transport schedule: a new BFS
//                                 level; each live shard is probed on its
//                                 first blocked() of the level, keyed
//                                 (seq, level, shard) — ShortestPath
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "serve/transport.h"

namespace gplus::serve {

/// The unsharded engine's rows: one view, always readable, no messages.
struct SingleSource {
  const SnapshotView* view = nullptr;

  std::uint8_t blocked(graph::NodeId) const noexcept { return 0; }
  std::uint8_t blocked_shard(std::size_t) const noexcept { return 0; }
  const SnapshotView& at(graph::NodeId) const noexcept { return *view; }
  std::uint64_t out_degree(graph::NodeId u) const noexcept {
    return view->out_degree(u);
  }
  std::uint64_t in_degree(graph::NodeId u) const noexcept {
    return view->in_degree(u);
  }
  void touch(graph::NodeId) noexcept {}
  void touch_shard(std::size_t) noexcept {}
  void end_phase() noexcept {}
  void probe_all() noexcept {}
  void next_level() noexcept {}
};

/// What the cluster router hands one scatter execution. Shard liveness is
/// fixed for a whole drain (kill/recover are legal only between drains),
/// so `dark` is resolved once per drain.
struct ShardContext {
  const std::uint8_t* owner = nullptr;         // node id -> shard
  const SnapshotView* const* views = nullptr;  // one per shard
  const std::uint8_t* dark = nullptr;          // per shard: no live replica
  const std::uint32_t* out_degree = nullptr;   // node id -> global degree,
  const std::uint32_t* in_degree = nullptr;    // held by the router
  std::size_t shard_count = 0;
  /// Null when the transport is disabled (a perfect network).
  const FaultyTransport* transport = nullptr;
  std::uint64_t seq = 0;                  // router sequence: the rpc keys
  std::vector<ShardRpc>* rpcs = nullptr;  // rolled contacts, committed later
  std::uint64_t* messages = nullptr;      // simulated inter-shard messages
};

/// The cluster's rows: each node's rows come from its owner shard's view.
/// A dark shard blocks with kResponseShardDark and is never probed; a
/// live shard whose transport rpc exhausts blocks with
/// kResponseQuorumPartial. Every rolled rpc is appended to `rpcs` in
/// roll order, which is the order the coordinator commits them.
class ShardSource {
 public:
  explicit ShardSource(const ShardContext& context)
      : ctx_(context), state_(context.shard_count) {
    for (std::size_t s = 0; s < ctx_.shard_count; ++s) {
      if (ctx_.dark[s] != 0) {
        state_[s] = kResponseShardDark;
      } else if (ctx_.transport != nullptr) {
        state_[s] = kUnprobed;
      }
    }
  }

  std::uint8_t blocked_shard(std::size_t s) {
    if (state_[s] == kUnprobed) {
      const RpcOutcome rpc = ctx_.transport->probe_shard(
          FaultyTransport::rpc_key(ctx_.seq, level_, s), s);
      ctx_.rpcs->push_back({static_cast<std::uint16_t>(s), rpc});
      state_[s] = rpc.ok ? 0 : kResponseQuorumPartial;
    }
    return state_[s];
  }
  std::uint8_t blocked(graph::NodeId u) { return blocked_shard(ctx_.owner[u]); }
  const SnapshotView& at(graph::NodeId u) const noexcept {
    return *ctx_.views[ctx_.owner[u]];
  }
  std::uint64_t out_degree(graph::NodeId u) const noexcept {
    return ctx_.out_degree[u];
  }
  std::uint64_t in_degree(graph::NodeId u) const noexcept {
    return ctx_.in_degree[u];
  }
  void touch_shard(std::size_t s) noexcept {
    mask_[s >> 6] |= std::uint64_t{1} << (s & 63);
  }
  void touch(graph::NodeId u) noexcept { touch_shard(ctx_.owner[u]); }
  void end_phase() noexcept {
    for (std::uint64_t& word : mask_) {
      *ctx_.messages += static_cast<std::uint64_t>(__builtin_popcountll(word));
      word = 0;
    }
  }
  void probe_all() {
    for (std::size_t s = 0; s < ctx_.shard_count; ++s) blocked_shard(s);
  }
  void next_level() noexcept {
    ++level_;
    if (ctx_.transport == nullptr) return;
    for (std::uint8_t& state : state_) {
      if (state != kResponseShardDark) state = kUnprobed;
    }
  }

 private:
  /// Not a response-flag bit: a live shard not yet probed this level.
  static constexpr std::uint8_t kUnprobed = 0x80;

  ShardContext ctx_;
  std::vector<std::uint8_t> state_;      // per shard: kUnprobed or flags
  std::array<std::uint64_t, 4> mask_{};  // 256 shards (owner is a byte)
  std::uint32_t level_ = 0;
};

/// (node, in_degree) entries, strongest first.
using TopList = std::vector<std::pair<graph::NodeId, std::uint64_t>>;

/// The TopK order: in-degree desc, then id asc — a total order (the
/// Table 1 ordering).
inline bool ranks_above(const std::pair<graph::NodeId, std::uint64_t>& a,
                        const std::pair<graph::NodeId, std::uint64_t>& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

/// Heap-selects the top-`cap` entries of each of `lists` lists over one
/// walk of offers, and the maximum in-degree offered. The order is total,
/// so the selection does not depend on the offer order.
class TopKSelector {
 public:
  TopKSelector(std::size_t lists, std::uint32_t cap)
      : lists_(lists), cap_(cap) {}

  void offer(std::size_t list, graph::NodeId u, std::uint64_t in_degree) {
    max_in_degree_ = std::max(max_in_degree_, in_degree);
    TopList& heap = lists_[list];  // weakest entry at the front
    if (heap.size() < cap_) {
      heap.emplace_back(u, in_degree);
      std::push_heap(heap.begin(), heap.end(), ranks_above);
    } else if (cap_ > 0 && ranks_above({u, in_degree}, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), ranks_above);
      heap.back() = {u, in_degree};
      std::push_heap(heap.begin(), heap.end(), ranks_above);
    }
  }

  /// The selected lists, each sorted strongest first.
  std::vector<TopList> take() {
    for (TopList& list : lists_) {
      std::sort(list.begin(), list.end(), ranks_above);
    }
    return std::move(lists_);
  }
  std::uint64_t max_in_degree() const noexcept { return max_in_degree_; }

 private:
  std::vector<TopList> lists_;
  std::uint32_t cap_;
  std::uint64_t max_in_degree_ = 0;
};

/// Bounded bidirectional BFS from `u` to `v`, expanding the side whose
/// frontier has fewer edges. Payload: distance u32 (kPathUnreachable
/// when no path within bounds), expanded u64. Probes the transport
/// lazily, once per shard per level.
template <typename Rows>
void shortest_path_core(Rows& rows, const EngineConfig& config,
                        graph::NodeId u, graph::NodeId v, Response& r,
                        RequestEngine::Meter& meter);

/// The top-`limit` entries of the merge of `lists` (the engine passes its
/// one list, the cluster one per shard; a blocked shard's list drops out).
/// Payload: count u32, count × (node u32, in_degree u64). Probes the
/// transport eagerly.
template <typename Rows>
void top_k_core(Rows& rows, const EngineConfig& config,
                std::span<const TopList> lists, std::uint32_t limit,
                Response& r, RequestEngine::Meter& meter);

}  // namespace gplus::serve
