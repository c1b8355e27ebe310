#include "algo/rewire.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "algo/clustering.h"
#include "algo/motifs.h"
#include "algo/reciprocity.h"
#include "graph/builder.h"
#include "stats/expect.h"

namespace gplus::algo {

using graph::DiGraph;
using graph::Edge;
using graph::NodeId;

namespace {

// 64-bit key for an edge; node ids are 32-bit.
std::uint64_t edge_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

DiGraph random_same_density(const DiGraph& g, stats::Rng& rng) {
  const auto n = static_cast<NodeId>(g.node_count());
  if (n < 2) return g;
  std::vector<Edge> edges;
  edges.reserve(g.edge_count());
  std::unordered_set<std::uint64_t> present;
  present.reserve(g.edge_count() * 2);
  std::uint64_t guard = 0;
  const std::uint64_t max_attempts = g.edge_count() * 20 + 100;
  while (edges.size() < g.edge_count() && guard < max_attempts) {
    ++guard;
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (u == v) continue;
    if (!present.insert(edge_key(u, v)).second) continue;
    edges.push_back({u, v});
  }
  return DiGraph::from_edges(n, edges);
}

namespace {

// Mutable degree-preserving edge store for the calibration loop: every
// move retargets an edge, so per-source buckets are static and only the
// per-target buckets need O(1) maintenance (swap-with-back removal).
struct EdgeStore {
  std::vector<Edge> edges;
  std::unordered_set<std::uint64_t> present;
  std::vector<std::vector<std::uint32_t>> out_ids;  // by source, static
  std::vector<std::vector<std::uint32_t>> in_ids;   // by current target
  std::vector<std::uint32_t> in_pos;  // edge id → slot in its in bucket
  // Nodes with out-degree ≥ 2 — the only legal closure-swap centers —
  // with a prefix-sum CDF weighting each by 1/(d(d-1)). A closed wedge
  // is worth ~1/(d(d-1)) to its center's coefficient, so sampling
  // centers by exactly that weight maximizes average-clustering gain
  // per move (edge-biased picks would chase high-degree centers whose
  // coefficients barely move).
  std::vector<NodeId> closure_sources;
  std::vector<double> closure_cdf;

  explicit EdgeStore(const DiGraph& g)
      : edges(g.edges()),
        out_ids(g.node_count()),
        in_ids(g.node_count()),
        in_pos(edges.size()) {
    present.reserve(edges.size() * 2);
    for (std::uint32_t e = 0; e < edges.size(); ++e) {
      present.insert(edge_key(edges[e].from, edges[e].to));
      out_ids[edges[e].from].push_back(e);
      in_pos[e] = static_cast<std::uint32_t>(in_ids[edges[e].to].size());
      in_ids[edges[e].to].push_back(e);
    }
    double total = 0.0;
    for (NodeId u = 0; u < out_ids.size(); ++u) {
      const auto d = static_cast<double>(out_ids[u].size());
      if (d < 2.0) continue;
      closure_sources.push_back(u);
      total += 1.0 / (d * (d - 1.0));
      closure_cdf.push_back(total);
    }
  }

  /// Draws a closure-swap center ∝ 1/(d(d-1)). Requires a nonempty pool.
  NodeId draw_closure_center(stats::Rng& rng) const {
    const double r = rng.next_double() * closure_cdf.back();
    const auto it =
        std::upper_bound(closure_cdf.begin(), closure_cdf.end(), r);
    const auto idx = std::min<std::size_t>(
        static_cast<std::size_t>(it - closure_cdf.begin()),
        closure_sources.size() - 1);
    return closure_sources[idx];
  }

  bool has(NodeId from, NodeId to) const {
    return present.contains(edge_key(from, to));
  }

  void retarget(std::uint32_t e, NodeId to) {
    Edge& edge = edges[e];
    present.erase(edge_key(edge.from, edge.to));
    auto& bucket = in_ids[edge.to];
    const std::uint32_t slot = in_pos[e];
    bucket[slot] = bucket.back();
    in_pos[bucket[slot]] = slot;
    bucket.pop_back();
    edge.to = to;
    present.insert(edge_key(edge.from, to));
    in_pos[e] = static_cast<std::uint32_t>(in_ids[to].size());
    in_ids[to].push_back(e);
  }

  DiGraph build(std::size_t node_count) const {
    return DiGraph::from_edges(static_cast<NodeId>(node_count), edges,
                               /*keep_self_loops=*/true);
  }
};

// Round snapshot for wholesale revert.
struct StoreState {
  std::vector<Edge> edges;
  std::unordered_set<std::uint64_t> present;
  std::vector<std::vector<std::uint32_t>> in_ids;
  std::vector<std::uint32_t> in_pos;
};

StoreState save_state(const EdgeStore& store) {
  return {store.edges, store.present, store.in_ids, store.in_pos};
}

void restore_state(EdgeStore& store, StoreState&& state) {
  store.edges = std::move(state.edges);
  store.present = std::move(state.present);
  store.in_ids = std::move(state.in_ids);
  store.in_pos = std::move(state.in_pos);
}

// Out-degree cap under which closure swaps evaluate the exact numerator
// payoff at the center (larger centers contribute ~nothing to the
// average coefficient, so a full scan there is wasted work).
constexpr std::size_t kClosurePayoffScanCap = 48;

// Closes the wedge u→v→w with u→w, paying for it with u→x, and repairs
// w's in-degree by retargeting some c→w to c→x. In- and out-degrees of
// every node are preserved, and mutual pairs are never broken (the move
// must not buy clustering by selling reciprocity). The sacrificed edge
// is the candidate whose removal costs u's clustering numerator least,
// and the move is rejected outright unless it strictly raises that
// numerator. Returns retargetings applied (0 or 2).
std::uint64_t propose_closure_swap(EdgeStore& store, stats::Rng& rng) {
  if (store.closure_sources.empty()) return 0;
  const NodeId u = store.draw_closure_center(rng);
  const auto& from_u = store.out_ids[u];
  const std::size_t d = from_u.size();
  const std::size_t i1 = rng.next_below(d);
  const std::uint32_t e1 = from_u[i1];
  const NodeId v = store.edges[e1].to;
  if (u == v) return 0;
  const auto& from_v = store.out_ids[v];
  if (from_v.empty()) return 0;
  const std::uint32_t e2 = from_v[rng.next_below(from_v.size())];
  const NodeId w = store.edges[e2].to;
  if (w == u || w == v || store.has(u, w)) return 0;

  // Sacrifice pick: never the wedge base e1, never a mutual partner of
  // u, and — among a handful of candidates — the edge whose target has
  // the fewest links to u's other out-neighbors.
  std::uint32_t e3 = 0;
  NodeId x = 0;
  int best_loss = -1;
  const std::size_t tries = std::min<std::size_t>(4, d - 1);
  for (std::size_t t = 0; t < tries; ++t) {
    std::size_t i3 = rng.next_below(d - 1);
    if (i3 >= i1) ++i3;
    const std::uint32_t cand = from_u[i3];
    const NodeId cx = store.edges[cand].to;  // ≠ v, ≠ w (no parallels)
    if (store.has(cx, u)) continue;          // mutual pair u↔x stays
    int loss = 0;
    if (d <= kClosurePayoffScanCap) {
      for (const std::uint32_t ey : from_u) {
        if (ey == cand) continue;
        const NodeId y = store.edges[ey].to;
        if (y == cx) continue;
        loss += static_cast<int>(store.has(cx, y)) +
                static_cast<int>(store.has(y, cx));
      }
    }
    if (best_loss < 0 || loss < best_loss) {
      best_loss = loss;
      e3 = cand;
      x = cx;
      if (loss == 0) break;
    }
  }
  if (best_loss < 0) return 0;

  // Net payoff at u: directed edges w brings to outs(u)∖{x} minus the
  // ones x takes away. The wedge edge v→w guarantees gain ≥ 1.
  if (d <= kClosurePayoffScanCap) {
    int gain = 0;
    for (const std::uint32_t ey : from_u) {
      if (ey == e3) continue;
      const NodeId y = store.edges[ey].to;
      if (y == x || y == w) continue;
      gain += static_cast<int>(store.has(w, y)) +
              static_cast<int>(store.has(y, w));
    }
    if (gain <= best_loss) return 0;
  }

  const auto& into_w = store.in_ids[w];
  for (int t = 0; t < 4; ++t) {
    const std::uint32_t e4 = into_w[rng.next_below(into_w.size())];
    const NodeId c = store.edges[e4].from;
    if (c == u || c == v || c == x || store.has(c, x)) continue;
    if (store.has(w, c)) continue;  // would break the mutual pair c↔w
    store.retarget(e3, w);
    store.retarget(e4, x);
    return 2;
  }
  return 0;
}

// Makes the one-way edge v→u mutual by retargeting u→x to u→v, repairing
// v's in-degree with some c→v retargeted to c→x. Degree-preserving.
std::uint64_t propose_reciprocity_swap(EdgeStore& store, stats::Rng& rng) {
  const std::uint64_t m = store.edges.size();
  const auto e1 = static_cast<std::uint32_t>(rng.next_below(m));
  const NodeId v = store.edges[e1].from;
  const NodeId u = store.edges[e1].to;
  if (u == v || store.has(u, v)) return 0;
  const auto& from_u = store.out_ids[u];
  if (from_u.empty()) return 0;
  const std::uint32_t e3 = from_u[rng.next_below(from_u.size())];
  const NodeId x = store.edges[e3].to;  // x ≠ v (u→v absent)
  if (store.has(x, u)) return 0;        // would break the mutual pair u↔x
  const auto& into_v = store.in_ids[v];
  if (into_v.empty()) return 0;
  const std::uint32_t e4 = into_v[rng.next_below(into_v.size())];
  const NodeId c = store.edges[e4].from;
  if (c == u || c == x || store.has(c, x)) return 0;
  if (store.has(v, c)) return 0;  // would break the mutual pair c↔v
  store.retarget(e3, v);
  store.retarget(e4, x);
  return 2;
}

// Plain configuration-model double swap: dilutes whatever structure the
// targeted moves built up (the "lower both" direction).
std::uint64_t propose_random_swap(EdgeStore& store, stats::Rng& rng) {
  const std::uint64_t m = store.edges.size();
  const auto a = static_cast<std::uint32_t>(rng.next_below(m));
  const auto b = static_cast<std::uint32_t>(rng.next_below(m));
  if (a == b) return 0;
  const Edge ea = store.edges[a];
  const Edge eb = store.edges[b];
  if (ea.from == eb.to || eb.from == ea.to) return 0;
  if (store.has(ea.from, eb.to) || store.has(eb.from, ea.to)) return 0;
  store.retarget(a, eb.to);
  store.retarget(b, ea.to);
  return 2;
}

double relative_gap(double target, double measured) {
  return (target - measured) / std::max(std::abs(target), 0.02);
}

}  // namespace

CalibrationMeasurement measure_profile(const DiGraph& g,
                                       const RewireObjective& objective,
                                       const CalibrateConfig& config) {
  CalibrationMeasurement out;
  if (config.clustering_sample == 0) {
    out.clustering = average_clustering_coefficient(g);
  } else {
    // Fixed measurement seed: every round of the calibration loop scores
    // against the same sampled node set.
    stats::Rng rng(config.seed ^ 0xC0FFEE);
    const auto values =
        sampled_clustering_coefficients(g, config.clustering_sample, rng);
    double sum = 0.0;
    for (const double v : values) sum += v;
    out.clustering =
        values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  }
  out.reciprocity = global_reciprocity(g);
  if (objective.closure_weight > 0.0) {
    out.closure = triad_census(g).wedge_closure();
  }
  return out;
}

double objective_error(const CalibrationMeasurement& measured,
                       const RewireObjective& objective) {
  const double weight_sum = objective.clustering_weight +
                            objective.reciprocity_weight +
                            objective.closure_weight;
  if (weight_sum <= 0.0) return 0.0;
  double sum = 0.0;
  const auto term = [&](double weight, double target, double value) {
    const double gap = relative_gap(target, value);
    sum += weight * gap * gap;
  };
  term(objective.clustering_weight, objective.target_clustering,
       measured.clustering);
  term(objective.reciprocity_weight, objective.target_reciprocity,
       measured.reciprocity);
  term(objective.closure_weight, objective.target_closure, measured.closure);
  return std::sqrt(sum / weight_sum);
}

CalibrationResult calibrate_to_profile(const DiGraph& g,
                                       const RewireObjective& objective,
                                       const CalibrateConfig& config) {
  GPLUS_EXPECT(config.swaps_per_round_per_edge >= 0.0,
               "swap budget must be nonnegative");
  CalibrationResult result;
  result.initial = measure_profile(g, objective, config);
  result.initial_error = objective_error(result.initial, objective);
  result.calibrated = result.initial;
  result.final_error = result.initial_error;
  if (g.edge_count() < 4 || config.max_rounds == 0) {
    result.graph = g;
    return result;
  }

  EdgeStore store(g);
  stats::Rng rng(config.seed);
  const auto proposals = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(config.swaps_per_round_per_edge *
                                    static_cast<double>(g.edge_count())));
  DiGraph best = g;
  double best_error = result.initial_error;
  CalibrationMeasurement best_measured = result.initial;
  std::size_t stale = 0;
  for (std::size_t round = 0;
       round < config.max_rounds && best_error > config.tolerance &&
       stale < config.max_stale_rounds;
       ++round) {
    // Move mix follows the signed errors: overshoot in any targeted
    // dimension feeds the random-swap (dilution) share.
    const double up_clustering =
        objective.clustering_weight *
            std::max(0.0, relative_gap(objective.target_clustering,
                                       best_measured.clustering)) +
        objective.closure_weight *
            std::max(0.0, relative_gap(objective.target_closure,
                                       best_measured.closure));
    const double up_reciprocity =
        objective.reciprocity_weight *
        std::max(0.0, relative_gap(objective.target_reciprocity,
                                   best_measured.reciprocity));
    const double down =
        objective.clustering_weight *
            std::max(0.0, -relative_gap(objective.target_clustering,
                                        best_measured.clustering)) +
        objective.reciprocity_weight *
            std::max(0.0, -relative_gap(objective.target_reciprocity,
                                        best_measured.reciprocity)) +
        objective.closure_weight *
            std::max(0.0, -relative_gap(objective.target_closure,
                                        best_measured.closure));
    const double mix = up_clustering + up_reciprocity + down;

    StoreState saved = save_state(store);
    std::uint64_t applied = 0;
    for (std::uint64_t p = 0; p < proposals; ++p) {
      if (mix <= 0.0) {
        applied += propose_random_swap(store, rng);
        continue;
      }
      const double pick = rng.next_double() * mix;
      if (pick < up_clustering) {
        applied += propose_closure_swap(store, rng);
      } else if (pick < up_clustering + up_reciprocity) {
        applied += propose_reciprocity_swap(store, rng);
      } else {
        applied += propose_random_swap(store, rng);
      }
    }

    DiGraph candidate = store.build(g.node_count());
    const CalibrationMeasurement measured =
        measure_profile(candidate, objective, config);
    const double error = objective_error(measured, objective);
    if (applied > 0 && error < best_error) {
      best = std::move(candidate);
      best_error = error;
      best_measured = measured;
      result.swaps_applied += applied;
      ++result.rounds_accepted;
      stale = 0;
    } else {
      restore_state(store, std::move(saved));
      ++result.rounds_reverted;
      ++stale;
    }
    result.round_errors.push_back(best_error);
  }

  result.graph = std::move(best);
  result.calibrated = best_measured;
  result.final_error = best_error;
  return result;
}

}  // namespace gplus::algo
