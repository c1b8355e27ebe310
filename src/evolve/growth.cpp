#include "evolve/growth.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "algo/bfs.h"
#include "algo/scc.h"
#include "stats/expect.h"

namespace gplus::evolve {

using graph::Edge;
using graph::NodeId;

namespace {

// Cumulative registrations per day (index 0 = day 0 = empty network):
// exponential viral ramp during the field trial, then a logistic adoption
// wave after open sign-up.
std::vector<std::uint64_t> registration_curve(const GrowthConfig& c) {
  GPLUS_EXPECT(c.days >= 2, "need at least two days");
  GPLUS_EXPECT(c.invite_only_days >= 1 && c.invite_only_days < c.days,
               "invite phase must fit inside the timeline");
  GPLUS_EXPECT(c.invite_phase_share > 0.0 && c.invite_phase_share < 1.0,
               "invite share must be in (0,1)");
  GPLUS_EXPECT(c.final_node_count >= 100, "need a non-trivial user base");

  const auto n_total = static_cast<double>(c.final_node_count);
  const double n_invite = c.invite_phase_share * n_total;

  std::vector<double> cumulative(static_cast<std::size_t>(c.days) + 1, 0.0);
  for (int d = 1; d <= c.invite_only_days; ++d) {
    // Exponential ramp ending exactly at n_invite on the last trial day.
    cumulative[d] =
        n_invite * std::exp(c.viral_growth_rate * (d - c.invite_only_days));
  }
  const auto logistic = [&](int d) {
    const double mid = c.invite_only_days +
                       0.35 * (c.days - c.invite_only_days);
    return 1.0 / (1.0 + std::exp(-c.open_adoption_steepness * (d - mid)));
  };
  const double l0 = logistic(c.invite_only_days);
  const double l1 = logistic(c.days);
  for (int d = c.invite_only_days + 1; d <= c.days; ++d) {
    cumulative[d] =
        n_invite + (n_total - n_invite) * (logistic(d) - l0) / (l1 - l0);
  }

  std::vector<std::uint64_t> out(cumulative.size(), 0);
  std::uint64_t prev = 0;
  for (std::size_t d = 1; d < cumulative.size(); ++d) {
    const auto v = static_cast<std::uint64_t>(std::llround(cumulative[d]));
    out[d] = std::max(prev, std::min<std::uint64_t>(v, c.final_node_count));
    prev = out[d];
  }
  out.back() = c.final_node_count;
  return out;
}

}  // namespace

GrowthSimulation::GrowthSimulation(const GrowthConfig& config)
    : config_(config) {
  nodes_by_day_ = registration_curve(config);
  const auto n = static_cast<NodeId>(config.final_node_count);
  stats::Rng rng(config.seed);

  // Join days: node ids are assigned in join order.
  join_day_.resize(n);
  {
    NodeId u = 0;
    for (int d = 1; d <= config.days; ++d) {
      while (u < nodes_by_day_[d]) join_day_[u++] = d;
    }
  }

  // Latent per-user facts.
  std::vector<float> fitness(n);
  std::vector<std::uint8_t> dormant(n);
  for (NodeId u = 0; u < n; ++u) {
    fitness[u] = static_cast<float>(
        std::pow(1.0 - rng.next_double(), -1.0 / config.fitness_alpha));
    dormant[u] = rng.next_bool(config.dormant_fraction);
  }

  // Audience pool: min(ceil(fitness), 500) copies per joined user gives
  // approximately fitness-proportional sampling without dynamic weights.
  std::vector<NodeId> pa_pool;
  pa_pool.reserve(n * 8);

  std::vector<std::vector<NodeId>> out_adj(n);
  std::vector<std::uint32_t> out_count(n, 0);

  // Adds scheduled for future days.
  std::vector<std::vector<NodeId>> trickle(
      static_cast<std::size_t>(config.days) + 1);

  // Dedup set so the chronological edge stream has no repeats: snapshot
  // edge counts then equal the CSR graph's.
  std::unordered_set<std::uint64_t> edge_seen;
  edge_seen.reserve(n * 16);
  auto push_edge = [&](NodeId from, NodeId to, int day) {
    const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
    if (!edge_seen.insert(key).second) return;
    out_adj[from].push_back(to);
    ++out_count[from];
    edges_.push_back({from, to});
    edge_day_.push_back(day);
  };
  auto at_capacity = [&](NodeId u) {
    return out_count[u] >= config.out_degree_cap;
  };

  auto perform_add = [&](NodeId u, int day) {
    if (at_capacity(u)) return;
    NodeId v = u;
    if (config.triadic_closure > 0.0 && rng.next_bool(config.triadic_closure) &&
        !out_adj[u].empty()) {
      const NodeId mid = out_adj[u][static_cast<std::size_t>(
          rng.next_below(out_adj[u].size()))];
      if (!out_adj[mid].empty()) {
        v = out_adj[mid][static_cast<std::size_t>(
            rng.next_below(out_adj[mid].size()))];
      }
    }
    if (v == u) {
      if (pa_pool.empty()) return;
      v = pa_pool[static_cast<std::size_t>(rng.next_below(pa_pool.size()))];
    }
    if (v == u) return;
    push_edge(u, v, day);
    if (!dormant[v] && !at_capacity(v) && rng.next_bool(config.reciprocation)) {
      push_edge(v, u, day);
    }
  };

  NodeId next_join = 0;
  for (int day = 1; day <= config.days; ++day) {
    // New registrations.
    while (next_join < nodes_by_day_[day]) {
      const NodeId u = next_join++;
      const bool invite_phase = day <= config.invite_only_days;
      // During the field trial every newcomer was invited by a member:
      // link to the inviter, near-surely mutual.
      if (invite_phase && !pa_pool.empty() && !dormant[u]) {
        const NodeId inviter =
            pa_pool[static_cast<std::size_t>(rng.next_below(pa_pool.size()))];
        if (inviter != u && !at_capacity(u)) {
          push_edge(u, inviter, day);
          if (!dormant[inviter] && !at_capacity(inviter) &&
              rng.next_bool(0.9)) {
            push_edge(inviter, u, day);
          }
        }
      }
      // Enter the audience pool.
      const auto copies = static_cast<std::size_t>(
          std::min(500.0, std::ceil(static_cast<double>(fitness[u]))));
      pa_pool.insert(pa_pool.end(), copies, u);

      if (dormant[u]) continue;
      // Plan adds: burst now, trickle later.
      const double x =
          config.out_xmin *
          std::pow(1.0 - rng.next_double(), -1.0 / config.out_alpha);
      const auto planned = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(x), config.out_degree_cap);
      const auto burst = static_cast<std::uint64_t>(
          config.join_day_burst * static_cast<double>(planned));
      for (std::uint64_t i = 0; i < burst; ++i) perform_add(u, day);
      for (std::uint64_t i = burst; i < planned; ++i) {
        const int when =
            day + 1 +
            static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(config.activity_window_days)));
        if (when <= config.days) trickle[when].push_back(u);
      }
    }
    // Scheduled activity of older users.
    for (NodeId u : trickle[day]) perform_add(u, day);
    trickle[day].clear();
  }

  // Cumulative edge counts per day.
  edges_by_day_.assign(static_cast<std::size_t>(config.days) + 1, 0);
  for (int d : edge_day_) ++edges_by_day_[d];
  for (std::size_t d = 1; d < edges_by_day_.size(); ++d) {
    edges_by_day_[d] += edges_by_day_[d - 1];
  }
}

std::size_t GrowthSimulation::node_count_at(int day) const {
  GPLUS_EXPECT(day >= 0 && day <= config_.days, "day out of range");
  return nodes_by_day_[day];
}

std::uint64_t GrowthSimulation::edge_count_at(int day) const {
  GPLUS_EXPECT(day >= 0 && day <= config_.days, "day out of range");
  return edges_by_day_[day];
}

graph::DiGraph GrowthSimulation::snapshot(int day) const {
  GPLUS_EXPECT(day >= 0 && day <= config_.days, "day out of range");
  const auto joined = static_cast<NodeId>(nodes_by_day_[day]);
  const std::uint64_t prefix = edges_by_day_[day];
  return graph::DiGraph::from_edges(
      joined, std::span<const Edge>(edges_.data(), prefix));
}

std::vector<GrowthMetrics> measure_growth(const GrowthSimulation& sim,
                                          const std::vector<int>& snapshot_days,
                                          std::size_t distance_sources,
                                          stats::Rng& rng) {
  std::vector<GrowthMetrics> out;
  out.reserve(snapshot_days.size());
  for (int day : snapshot_days) {
    GrowthMetrics m;
    m.day = day;
    m.nodes = sim.node_count_at(day);
    m.edges = sim.edge_count_at(day);
    if (m.nodes == 0) {
      out.push_back(m);
      continue;
    }
    m.mean_degree = static_cast<double>(m.edges) / static_cast<double>(m.nodes);

    const auto g = sim.snapshot(day);
    const auto wcc = algo::weakly_connected_components(g);
    m.giant_wcc_fraction = wcc.giant_fraction();

    // Effective diameter: 90th percentile of reachable sampled distances.
    algo::PathLengthOptions opt;
    opt.initial_sources = std::max<std::size_t>(1, distance_sources / 2);
    opt.max_sources = std::max<std::size_t>(1, distance_sources);
    opt.undirected = true;
    const auto paths = algo::estimate_path_lengths(g, opt, rng);
    double mass = 0.0;
    for (std::size_t h = 1; h < paths.pmf.size(); ++h) {
      mass += paths.pmf[h];
      if (mass >= 0.9) {
        // Linear interpolation inside the bucket.
        const double prev_mass = mass - paths.pmf[h];
        const double frac = paths.pmf[h] > 0.0
                                ? (0.9 - prev_mass) / paths.pmf[h]
                                : 0.0;
        m.effective_diameter = static_cast<double>(h - 1) + frac;
        break;
      }
    }
    out.push_back(m);
  }
  return out;
}

AdoptionCurve adoption_curve(const GrowthSimulation& sim) {
  AdoptionCurve out;
  const int days = sim.days();
  out.daily_new.assign(static_cast<std::size_t>(days) + 1, 0);
  for (int d = 1; d <= days; ++d) {
    out.daily_new[d] = sim.node_count_at(d) - sim.node_count_at(d - 1);
  }

  std::uint64_t peak = 0;
  for (int d = 1; d <= days; ++d) {
    if (out.daily_new[d] > peak) {
      peak = out.daily_new[d];
      out.peak_day = d;
    }
  }
  // Transition: largest absolute jump in the daily-new series.
  std::int64_t best_jump = 0;
  for (int d = 2; d <= days; ++d) {
    const auto jump = static_cast<std::int64_t>(out.daily_new[d]) -
                      static_cast<std::int64_t>(out.daily_new[d - 1]);
    if (jump > best_jump) {
      best_jump = jump;
      out.transition_day = d;
    }
  }
  // Saturation: first post-peak day under 10% of the peak rate.
  for (int d = out.peak_day + 1; d <= days; ++d) {
    if (out.daily_new[d] * 10 < peak) {
      out.saturation_day = d;
      break;
    }
  }
  return out;
}

stats::LinearFit densification_fit(const std::vector<GrowthMetrics>& series) {
  std::vector<double> log_n, log_e;
  for (const auto& m : series) {
    if (m.nodes == 0 || m.edges == 0) continue;
    log_n.push_back(std::log10(static_cast<double>(m.nodes)));
    log_e.push_back(std::log10(static_cast<double>(m.edges)));
  }
  return stats::linear_regression(log_n, log_e);
}

}  // namespace gplus::evolve
