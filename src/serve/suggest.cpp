#include "serve/suggest.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "algo/intersect.h"
#include "serve/node_table.h"
#include "serve/payload.h"
#include "serve/row_source.h"

namespace gplus::serve {

namespace {

struct Candidate {
  graph::NodeId node = 0;
  std::uint32_t common = 0;
  // Adamic-Adar, summed in generation order; ranking freezes it to micro
  // fixed point in place (one member at a time, 16 bytes a candidate).
  union {
    double aa = 0.0;
    std::int64_t aa_micro;
  };
};

// The `seen` value of u and out(u). Never a candidate index: those stay
// below the node count, which is at most 2^32 - 1.
constexpr std::uint32_t kExcluded = 0xFFFFFFFF;

// One lane's Suggest state, reused by its next request.
struct SuggestScratch {
  NodeTable seen;  // u, out(u) -> kExcluded; candidate -> index in ranked
  std::vector<graph::NodeId> friends;
  std::vector<graph::NodeId> their_friends;
  std::vector<Candidate> ranked;  // in generation order until ranked

  void clear() noexcept {
    seen.clear();
    clear_scratch(friends);
    clear_scratch(their_friends);
    clear_scratch(ranked);
  }
};

thread_local SuggestScratch t_suggest_scratch;

/// Gong-style reciprocation likelihood in [0, 1000]: saturating
/// mutual-neighbor evidence dominates, out/in balance second (parasocial
/// in-heavy profiles reciprocate less), hub-ness penalized last. All
/// inputs are exact integers, so the double math is reproducible.
std::uint32_t reciprocation_milli(std::uint64_t mutual, std::uint64_t in_w,
                                  std::uint64_t out_w,
                                  std::uint64_t max_in) noexcept {
  const double m = static_cast<double>(mutual);
  const double mutual_f = m / (m + 4.0);
  const double balance = std::min(
      1.0, static_cast<double>(out_w + 1) / static_cast<double>(in_w + 1));
  const double hub =
      max_in > 0 ? std::log2(1.0 + static_cast<double>(in_w)) /
                       std::log2(1.0 + static_cast<double>(max_in))
                 : 0.0;
  const double score =
      0.55 * mutual_f + 0.30 * balance + 0.15 * (1.0 - hub);
  return static_cast<std::uint32_t>(std::llround(score * 1000.0));
}

}  // namespace

template <typename Rows>
void suggest_core(Rows& rows, const EngineConfig& config,
                  std::uint64_t max_in_degree, const Request& request,
                  Response& r, RequestEngine::Meter& meter) {
  // Connections open up front: the walk is data-dependent, so eager setup
  // is what keeps the transport schedule a pure function of (seq, shard).
  rows.probe_all();
  const std::uint32_t k =
      request.limit == 0 ? config.suggest_cap : request.limit;
  if (k > config.suggest_cap) {
    r.status = ServeStatus::kInvalidRequest;
    return;
  }
  const graph::NodeId u = request.user;
  std::uint8_t degrade = 0;  // blocked-shard flag bits encountered
  bool deadline = false;
  SuggestScratch& scratch = t_suggest_scratch;
  const ScratchLease lease(scratch);
  std::vector<graph::NodeId>& friends = scratch.friends;
  NodeTable& seen = scratch.seen;
  std::vector<Candidate>& ranked = scratch.ranked;

  // Phase 1 — root fetch: materialize out(u) (ascending; the mutual-
  // neighbor kernel operand) and mark u and out(u) excluded.
  if (const std::uint8_t b = rows.blocked(u); b == 0) {
    rows.touch(u);
    const SnapshotView& view = rows.at(u);
    friends.reserve(static_cast<std::size_t>(view.out_degree(u)));
    NeighborScan scan = view.out_scan(u);
    graph::NodeId v = 0;
    while (scan.next(v)) friends.push_back(v);
    seen.try_emplace(u, kExcluded);
    for (const graph::NodeId f : friends) seen.try_emplace(f, kExcluded);
  } else {
    degrade |= b;
  }
  rows.end_phase();

  // Phase 2 — 2-hop expansion in fixed ascending order: candidate w earns
  // +1 common-neighbor and +1/ln(deg(v)) Adamic-Adar per shared neighbor
  // v. The per-candidate accumulation order is the generation order, so
  // the doubles are reproducible; they are frozen to fixed point before
  // ranking. Candidates are kept dense, in generation order.
  std::uint64_t scanned = 0;
  const std::size_t frontier =
      std::min<std::size_t>(friends.size(), config.suggest_frontier_cap);
  for (std::size_t i = 0; i < frontier && !deadline; ++i) {
    const graph::NodeId v = friends[i];
    if (!meter.charge(1)) {  // 1 unit per 1-hop neighbor expanded
      deadline = true;
      break;
    }
    if (const std::uint8_t b = rows.blocked(v); b != 0) {
      degrade |= b;
      continue;
    }
    rows.touch(v);
    const SnapshotView& view = rows.at(v);
    const std::uint64_t deg_v = view.out_degree(v) + view.in_degree(v);
    const double aa_term =
        1.0 / std::log(static_cast<double>(std::max<std::uint64_t>(deg_v, 2)));
    NeighborScan scan = view.out_scan(v);
    graph::NodeId w = 0;
    while (scan.next(w)) {
      // A hard cap, not a deadline.
      if (scanned >= config.suggest_expand_budget) break;
      ++scanned;
      if (!meter.charge(1)) {  // 1 unit per 2-hop edge scanned
        deadline = true;
        break;
      }
      const auto [index, fresh] =
          seen.try_emplace(w, static_cast<std::uint32_t>(ranked.size()));
      if (fresh) {
        ranked.push_back(Candidate{w, 1, aa_term});
      } else if (*index != kExcluded) {
        ranked[*index].common += 1;
        ranked[*index].aa += aa_term;
      }
    }
    if (scanned >= config.suggest_expand_budget) break;
  }
  rows.end_phase();

  // Rank: (adamic-adar desc, common desc, id asc) — a total order on the
  // distinct candidates, so the top `count` prefix is independent of the
  // generation order. Blocked-owned candidates drop out here (their rows
  // are unreadable this drain), flagged below.
  std::size_t kept = 0;
  for (Candidate& c : ranked) {
    if (const std::uint8_t b = rows.blocked(c.node); b != 0) {
      degrade |= b;
      continue;
    }
    c.aa_micro = std::llround(c.aa * 1e6);
    ranked[kept++] = c;
  }
  ranked.resize(kept);
  const std::uint32_t count = static_cast<std::uint32_t>(
      std::min<std::size_t>(k, ranked.size()));
  std::partial_sort(ranked.begin(), ranked.begin() + count, ranked.end(),
                    [](const Candidate& a, const Candidate& b) {
                      if (a.aa_micro != b.aa_micro) {
                        return a.aa_micro > b.aa_micro;
                      }
                      if (a.common != b.common) return a.common > b.common;
                      return a.node < b.node;
                    });

  // Phase 3 — score + emit. Header: candidates u32, count u32, scanned
  // u64; entries are 24 bytes each. A deadline mid-emission patches the
  // count field (payload[4..7]) and keeps the entries that fit.
  put_u32(r.payload, static_cast<std::uint32_t>(ranked.size()));
  put_u32(r.payload, count);
  put_u64(r.payload, scanned);
  std::vector<graph::NodeId>& their_friends = scratch.their_friends;
  std::uint32_t emitted = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (deadline || !meter.charge(1)) {  // 1 unit per suggestion emitted
      deadline = true;
      patch_u32(r.payload, 4, emitted);
      break;
    }
    const Candidate& c = ranked[i];
    rows.touch(c.node);
    const SnapshotView& view = rows.at(c.node);
    their_friends.clear();
    their_friends.reserve(static_cast<std::size_t>(view.out_degree(c.node)));
    NeighborScan scan = view.out_scan(c.node);
    graph::NodeId x = 0;
    while (scan.next(x)) their_friends.push_back(x);
    // Mutual-neighbor evidence via the shared kernel layer: every variant
    // returns the same count, so the payload is dispatch-invariant.
    const std::uint64_t mutual = algo::intersect_count(friends, their_friends);
    const std::uint64_t in_w = view.in_degree(c.node);
    const std::uint64_t out_w = view.out_degree(c.node);
    put_u32(r.payload, c.node);
    put_u32(r.payload, c.common);
    put_u32(r.payload, static_cast<std::uint32_t>(mutual));
    put_u32(r.payload, reciprocation_milli(mutual, in_w, out_w, max_in_degree));
    put_u64(r.payload, static_cast<std::uint64_t>(c.aa_micro));
    ++emitted;
  }
  rows.end_phase();

  if (deadline) {
    r.status = ServeStatus::kDeadlineExceeded;
    r.flags |= kResponsePartial;
  }
  if (degrade != 0) {
    r.flags |= degrade | kResponsePartial;
  }
}

template void suggest_core(SingleSource&, const EngineConfig&, std::uint64_t,
                           const Request&, Response&, RequestEngine::Meter&);
template void suggest_core(ShardSource&, const EngineConfig&, std::uint64_t,
                           const Request&, Response&, RequestEngine::Meter&);

}  // namespace gplus::serve
