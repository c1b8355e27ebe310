#include "serve/row_source.h"

#include "serve/node_table.h"
#include "serve/payload.h"

namespace gplus::serve {

namespace {

// One lane's ShortestPath tables, reused by its next request.
struct PathScratch {
  NodeTable fwd;  // node -> depth from u, over out-edges
  NodeTable bwd;  // node -> depth to v, over in-edges

  void clear() noexcept {
    fwd.clear();
    bwd.clear();
  }
};

thread_local PathScratch t_path_scratch;

// One side of the search: its frontier and depth, and the degree sum over
// the frontier's first `summed` nodes (out-degrees forward, in-degrees
// backward).
struct PathSide {
  std::vector<graph::NodeId> frontier;
  std::uint32_t depth = 0;
  std::uint64_t edges = 0;
  std::size_t summed = 0;

  bool summed_all() const noexcept { return summed == frontier.size(); }
};

// True when the forward frontier has at most as many edges as the
// backward one. The sums grow lazily, always on the side that is behind,
// until the comparison is decided, so each degree is read at most once
// and the side left unexpanded keeps its partial sum for the next level.
// The answer is the comparison of the two full sums.
template <typename Rows>
bool forward_has_fewer_edges(Rows& rows, PathSide& fwd, PathSide& bwd) {
  for (;;) {
    if (fwd.edges <= bwd.edges) {
      if (fwd.summed_all()) return true;
      fwd.edges += rows.out_degree(fwd.frontier[fwd.summed++]);
    } else {
      if (bwd.summed_all()) return false;
      bwd.edges += rows.in_degree(bwd.frontier[bwd.summed++]);
    }
  }
}

}  // namespace

// A forward frontier over out-edges from `u` and a backward frontier over
// in-edges from `v`, expanding the side whose next level scans fewer
// edges: the sum of the forward frontier's out-degrees against the sum of
// the backward frontier's in-degrees, ties forward. The row source serves
// the degrees without a shard read, a message, an rpc or a cost unit, so
// the choice is the same on the engine and on every cluster. Frontiers
// expand level-synchronously in sorted adjacency order, so the expansion
// count (and thus the payload) is thread-count independent. Each level is
// one frontier exchange: a message per distinct owner shard read. A
// frontier node whose owner is blocked is skipped and the answer
// degrades.
template <typename Rows>
void shortest_path_core(Rows& rows, const EngineConfig& config,
                        graph::NodeId u, graph::NodeId v, Response& r,
                        RequestEngine::Meter& meter) {
  if (u == v) {
    meter.charge(1);
    put_u32(r.payload, 0);
    put_u64(r.payload, 1);
    return;
  }
  PathScratch& scratch = t_path_scratch;
  const ScratchLease lease(scratch);
  scratch.fwd.try_emplace(u, 0);
  scratch.bwd.try_emplace(v, 0);
  PathSide fwd{{u}};
  PathSide bwd{{v}};
  std::vector<graph::NodeId> next;
  std::uint64_t expanded = 2;
  std::uint32_t best = kPathUnreachable;
  std::uint8_t degrade = 0;  // blocked-shard flag bits encountered
  // 1 cost unit per node settled (the two roots, then each discovery).
  // Deadline exhaustion aborts the expansion exactly like the node budget,
  // reporting best-so-far distance — but flagged partial.
  bool deadline = !meter.charge(2);

  while (!deadline && !fwd.frontier.empty() && !bwd.frontier.empty() &&
         fwd.depth + bwd.depth < config.path_max_hops &&
         expanded < config.path_node_budget) {
    const bool forward = forward_has_fewer_edges(rows, fwd, bwd);
    PathSide& side = forward ? fwd : bwd;
    NodeTable& mine = forward ? scratch.fwd : scratch.bwd;
    const NodeTable& other = forward ? scratch.bwd : scratch.fwd;
    const std::uint32_t depth = side.depth + 1;
    rows.next_level();
    next.clear();
    for (const graph::NodeId x : side.frontier) {
      if (const std::uint8_t b = rows.blocked(x); b != 0) {
        degrade |= b;
        continue;
      }
      rows.touch(x);
      const SnapshotView& view = rows.at(x);
      NeighborScan neighbors = forward ? view.out_scan(x) : view.in_scan(x);
      graph::NodeId y = 0;
      while (neighbors.next(y)) {
        if (!mine.try_emplace(y, depth).second) continue;
        ++expanded;
        if (!meter.charge(1)) deadline = true;
        if (const std::uint32_t* hit = other.find(y); hit != nullptr) {
          best = std::min(best, depth + *hit);
        }
        next.push_back(y);
        if (deadline || expanded >= config.path_node_budget) break;
      }
      if (deadline || expanded >= config.path_node_budget) break;
    }
    rows.end_phase();
    side.frontier.swap(next);
    side.depth = depth;
    side.edges = 0;
    side.summed = 0;
    // A meeting at this level is optimal once both frontiers completed
    // the levels that could still shorten it.
    if (best != kPathUnreachable && best <= fwd.depth + bwd.depth) break;
  }
  if (deadline) {
    r.status = ServeStatus::kDeadlineExceeded;
    r.flags |= kResponsePartial;
  }
  if (degrade != 0) r.flags |= degrade | kResponsePartial;
  put_u32(r.payload, best);
  put_u64(r.payload, expanded);
}

// A K-way partial merge, one message per readable list. Any node in the
// global top-k is a fortiori in its owner shard's top-k, so merging the
// per-shard lists reproduces the single list exactly. 1 cost unit per
// entry emitted; a deadline patches the count and keeps what fit.
template <typename Rows>
void top_k_core(Rows& rows, const EngineConfig& config,
                std::span<const TopList> lists, std::uint32_t limit,
                Response& r, RequestEngine::Meter& meter) {
  const std::uint32_t k = limit == 0 ? config.topk_cap : limit;
  if (k > config.topk_cap) {
    r.status = ServeStatus::kInvalidRequest;
    return;
  }
  rows.probe_all();
  std::uint8_t degrade = 0;
  std::uint64_t candidates = 0;
  std::vector<std::size_t> head(lists.size(), 0);
  for (std::size_t s = 0; s < lists.size(); ++s) {
    if (const std::uint8_t b = rows.blocked_shard(s); b != 0) {
      degrade |= b;
      head[s] = lists[s].size();  // drops out of the merge
      continue;
    }
    rows.touch_shard(s);
    candidates += lists[s].size();
  }
  rows.end_phase();
  const std::uint32_t count =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(k, candidates));
  put_u32(r.payload, count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!meter.charge(1)) {
      r.status = ServeStatus::kDeadlineExceeded;
      r.flags |= kResponsePartial;
      patch_u32(r.payload, 0, i);
      break;
    }
    std::size_t pick = lists.size();
    for (std::size_t s = 0; s < lists.size(); ++s) {
      if (head[s] == lists[s].size()) continue;
      if (pick == lists.size() ||
          ranks_above(lists[s][head[s]], lists[pick][head[pick]])) {
        pick = s;
      }
    }
    const auto& entry = lists[pick][head[pick]++];
    put_u32(r.payload, entry.first);
    put_u64(r.payload, entry.second);
  }
  if (degrade != 0) r.flags |= degrade | kResponsePartial;
}

template void shortest_path_core(SingleSource&, const EngineConfig&,
                                 graph::NodeId, graph::NodeId, Response&,
                                 RequestEngine::Meter&);
template void shortest_path_core(ShardSource&, const EngineConfig&,
                                 graph::NodeId, graph::NodeId, Response&,
                                 RequestEngine::Meter&);
template void top_k_core(SingleSource&, const EngineConfig&,
                         std::span<const TopList>, std::uint32_t, Response&,
                         RequestEngine::Meter&);
template void top_k_core(ShardSource&, const EngineConfig&,
                         std::span<const TopList>, std::uint32_t, Response&,
                         RequestEngine::Meter&);

}  // namespace gplus::serve
