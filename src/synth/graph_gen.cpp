#include "synth/graph_gen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "graph/builder.h"
#include "stats/discrete.h"
#include "stats/expect.h"

namespace gplus::synth {

using geo::CountryId;
using graph::NodeId;

std::uint64_t sample_truncated_pareto(double xmin, double alpha_ccdf,
                                      std::uint64_t cap, stats::Rng& rng) {
  GPLUS_EXPECT(xmin > 0.0, "xmin must be positive");
  GPLUS_EXPECT(alpha_ccdf > 0.0, "alpha must be positive");
  const double u = 1.0 - rng.next_double();  // (0, 1]
  const double x = xmin * std::pow(u, -1.0 / alpha_ccdf);
  auto value = static_cast<std::uint64_t>(x);
  if (cap != 0) value = std::min(value, cap);
  return value;
}

namespace {

/// Uniform pool of node ids with O(1) sampling.
class UniformPool {
 public:
  void add(NodeId id) { members_.push_back(id); }
  bool empty() const noexcept { return members_.empty(); }
  NodeId sample(stats::Rng& rng) const {
    return members_[static_cast<std::size_t>(rng.next_below(members_.size()))];
  }

 private:
  std::vector<NodeId> members_;
};

/// Fitness-weighted static pool (alias table over the member fitnesses).
class WeightedPool {
 public:
  void add(NodeId id, double weight) {
    members_.push_back(id);
    weights_.push_back(weight);
  }
  bool empty() const noexcept { return members_.empty(); }
  /// Freezes the pool; must be called once before sampling.
  void freeze() {
    if (!members_.empty()) {
      dist_.emplace(std::span<const double>(weights_));
      weights_.clear();
      weights_.shrink_to_fit();
    }
  }
  NodeId sample(stats::Rng& rng) const { return members_[dist_->sample(rng)]; }

 private:
  std::vector<NodeId> members_;
  std::vector<double> weights_;
  std::optional<stats::DiscreteDistribution> dist_;
};

}  // namespace

GeneratedNetwork generate_network(const GraphGenConfig& config,
                                  const PopulationModel& population,
                                  const geo::World& world) {
  GPLUS_EXPECT(config.node_count >= 2, "need at least two users");
  GPLUS_EXPECT(config.node_count <= UINT32_MAX, "node count exceeds NodeId");
  GPLUS_EXPECT(
      config.celebrity_fraction >= 0.0 && config.celebrity_fraction <= 1.0,
      "celebrity fraction must be a probability");

  const auto n = static_cast<NodeId>(config.node_count);
  const std::size_t country_n = geo::country_count();
  stats::Rng rng(config.seed);

  GeneratedNetwork net;
  net.country.resize(n);
  net.city.resize(n);
  net.location.resize(n);
  net.celebrity.assign(n, 0);
  net.fitness.resize(n);

  // ---- Latent facts ---------------------------------------------------------
  stats::Rng geo_rng = rng.fork();
  stats::Rng fit_rng = rng.fork();
  for (NodeId u = 0; u < n; ++u) {
    const CountryId c = population.sample_country(geo_rng);
    net.country[u] = c;
    net.city[u] = static_cast<std::uint16_t>(world.sample_city(c, geo_rng));
    net.location[u] = world.sample_location_in_city(c, net.city[u], geo_rng);
    net.fitness[u] = static_cast<float>(
        std::pow(1.0 - fit_rng.next_double(), -1.0 / config.fitness_alpha));
  }

  // Celebrities: the top `celebrity_fraction` of the fitness order.
  const auto celeb_count = static_cast<std::size_t>(
      std::llround(config.celebrity_fraction * static_cast<double>(n)));
  if (celeb_count > 0) {
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), NodeId{0});
    std::nth_element(
        order.begin(),
        order.begin() + static_cast<std::ptrdiff_t>(celeb_count - 1),
        order.end(),
        [&](NodeId a, NodeId b) { return net.fitness[a] > net.fitness[b]; });
    for (std::size_t i = 0; i < celeb_count; ++i) net.celebrity[order[i]] = 1;
  }

  // ---- User types -----------------------------------------------------------
  std::vector<std::uint8_t> dormant(n, 0);
  std::vector<std::uint8_t> social(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    // Celebrities are never dormant: their accounts exist to broadcast.
    dormant[u] = !net.celebrity[u] && rng.next_bool(config.dormant_fraction);
    social[u] = rng.next_bool(config.social_fraction);
  }

  // ---- Target pools ---------------------------------------------------------
  // Friend targets: uniform within community / (country, city) / country,
  // *active accounts only* — people add friends they actually interact
  // with. Interest targets: fitness-weighted within country, dormant
  // included (an abandoned account can still be followed).
  std::vector<UniformPool> country_uniform(country_n);
  std::vector<std::vector<UniformPool>> city_uniform(country_n);
  std::vector<WeightedPool> country_fitness(country_n);
  std::vector<std::vector<WeightedPool>> city_fitness(country_n);
  WeightedPool global_fitness;
  for (CountryId c = 0; c < country_n; ++c) {
    city_uniform[c].resize(geo::country(c).cities.size());
    city_fitness[c].resize(geo::country(c).cities.size());
  }
  for (NodeId u = 0; u < n; ++u) {
    const CountryId c = net.country[u];
    if (!dormant[u]) {
      country_uniform[c].add(u);
      city_uniform[c][net.city[u]].add(u);
    }
    country_fitness[c].add(u, net.fitness[u]);
    city_fitness[c][net.city[u]].add(u, net.fitness[u]);
    global_fitness.add(u, net.fitness[u]);
  }
  for (auto& pool : country_fitness) pool.freeze();
  for (auto& pools : city_fitness) {
    for (auto& pool : pools) pool.freeze();
  }
  global_fitness.freeze();

  // ---- Communities ----------------------------------------------------------
  // Within every (country, city) bucket, members are shuffled and chopped
  // into offline communities (family / school / workplace cliques) of
  // shifted-exponential size. Friend adds concentrate inside them, creating
  // the dense triangle neighborhoods behind Fig 4b.
  std::vector<std::uint32_t> community_of(n, 0);
  std::vector<std::vector<NodeId>> community_members;
  {
    std::vector<std::vector<std::vector<NodeId>>> buckets(country_n);
    for (CountryId c = 0; c < country_n; ++c) {
      buckets[c].resize(geo::country(c).cities.size());
    }
    for (NodeId u = 0; u < n; ++u) {
      if (!dormant[u]) buckets[net.country[u]][net.city[u]].push_back(u);
    }
    const double comm_mean = std::max(2.0, config.community_size_mean);
    for (auto& cities : buckets) {
      for (auto& members : cities) {
        rng.shuffle(members);
        std::size_t pos = 0;
        while (pos < members.size()) {
          const auto size = static_cast<std::size_t>(
              2.0 + rng.next_exponential(1.0 / (comm_mean - 2.0)));
          const std::size_t end = std::min(members.size(), pos + size);
          const auto id = static_cast<std::uint32_t>(community_members.size());
          community_members.emplace_back(
              members.begin() + static_cast<std::ptrdiff_t>(pos),
              members.begin() + static_cast<std::ptrdiff_t>(end));
          for (std::size_t i = pos; i < end; ++i) community_of[members[i]] = id;
          pos = end;
        }
      }
    }
  }

  // ---- Edge generation ------------------------------------------------------
  std::vector<std::vector<NodeId>> out_adj(n);
  std::vector<std::uint32_t> out_count(n, 0);

  const std::uint32_t cap = config.out_degree_cap;
  auto at_capacity = [&](NodeId u) {
    return config.enforce_out_cap && !net.celebrity[u] && out_count[u] >= cap;
  };
  auto push_edge = [&](NodeId from, NodeId to) {
    out_adj[from].push_back(to);
    ++out_count[from];
  };

  // Sample the target country honoring the geo_mixing ablation knob.
  auto sample_target_country = [&](CountryId own) {
    if (config.geo_mixing < 1.0 && !rng.next_bool(config.geo_mixing))
      return own;
    return population.sample_target_country(own, rng);
  };

  for (NodeId u = 0; u < n; ++u) {
    if (dormant[u]) continue;
    const CountryId own = net.country[u];
    const std::uint64_t plan_cap =
        (config.enforce_out_cap && !net.celebrity[u]) ? cap : 0;
    const auto planned = sample_truncated_pareto(
        config.out_xmin, config.out_alpha, plan_cap, rng);

    // Shifted-exponential friend budget: at least one real friend; social
    // users budget far more of their adds to people they know.
    const double budget_mean =
        social[u] ? config.friend_budget_social : config.friend_budget_consumer;
    const auto budget = static_cast<std::uint64_t>(
        1.0 + rng.next_exponential(1.0 / std::max(1e-9, budget_mean)));
    const std::uint64_t friend_adds = std::min<std::uint64_t>(planned, budget);

    const auto& community = community_members[community_of[u]];

    for (std::uint64_t i = 0; i < planned; ++i) {
      if (at_capacity(u)) break;
      const bool friend_add = i < friend_adds;
      NodeId v = u;  // sentinel: self means "no target yet"

      if (friend_add) {
        if (config.triadic_closure > 0.0 &&
            rng.next_bool(config.triadic_closure) && !out_adj[u].empty()) {
          // Friend-of-friend: close a transitive triangle. Celebrities are
          // skipped — "my friend also follows Lady Gaga" is not a friend
          // introduction — as are abandoned accounts.
          const NodeId mid = out_adj[u][static_cast<std::size_t>(
              rng.next_below(out_adj[u].size()))];
          if (!out_adj[mid].empty()) {
            const NodeId fof = out_adj[mid][static_cast<std::size_t>(
                rng.next_below(out_adj[mid].size()))];
            if (!net.celebrity[fof] && !dormant[fof]) v = fof;
          }
        }
        if (v == u && community.size() > 1 &&
            rng.next_bool(config.community_bias)) {
          v = community[static_cast<std::size_t>(
              rng.next_below(community.size()))];
        }
      }
      if (v == u) {
        const CountryId tc = sample_target_country(own);
        if (friend_add) {
          const auto& city_pool =
              (tc == own) ? city_uniform[tc][net.city[u]] : city_uniform[tc][0];
          if (rng.next_bool(config.same_city_bias) && !city_pool.empty()) {
            v = city_pool.sample(rng);
          } else if (!country_uniform[tc].empty()) {
            v = country_uniform[tc].sample(rng);
          }
        } else {
          // Interest add: a slice of domestic interest is city-local.
          const auto& local_pool =
              city_fitness[tc][tc == own ? net.city[u] : 0];
          if (tc == own && rng.next_bool(config.local_interest_bias) &&
              !local_pool.empty()) {
            v = local_pool.sample(rng);
          } else if (!country_fitness[tc].empty()) {
            v = country_fitness[tc].sample(rng);
          } else {
            v = global_fitness.sample(rng);
          }
        }
      }
      if (v == u) continue;  // no usable pool or self-pick: drop the add

      push_edge(u, v);

      // Reciprocation by the target. Dormant users never add back.
      double p_back;
      if (dormant[v]) {
        p_back = 0.0;
      } else if (net.celebrity[v]) {
        p_back = config.celebrity_reciprocation;
      } else if (friend_add) {
        p_back = config.friend_reciprocation;
      } else {
        p_back = config.interest_reciprocation;
      }
      if (p_back > 0.0 && !at_capacity(v) && rng.next_bool(p_back)) {
        push_edge(v, u);
      }
    }
  }

  // ---- Materialize ----------------------------------------------------------
  graph::GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : out_adj[u]) builder.add_edge(u, v);
    out_adj[u].clear();
    out_adj[u].shrink_to_fit();
  }
  net.graph = builder.build();
  return net;
}

}  // namespace gplus::synth
