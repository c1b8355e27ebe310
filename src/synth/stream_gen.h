// Streaming synthetic-graph generator for paper-scale snapshot builds.
//
// `generate_network` materializes the full DiGraph plus per-node latent
// state — perfect for analysis runs, impossible at 35M nodes next to an
// out-of-core snapshot build. This generator keeps only O(n) latent
// arrays (country, fitness, flags, per-country member lists and one
// fitness-weighted alias table per country) and *emits* edges through a
// callback instead of storing them, so the only O(m) structure in the
// whole build pipeline is the builder's on-disk runs.
//
// The model is the core of graph_gen without its in-RAM-only mechanisms:
// heavy-tailed planned adds with the 5,000 cliff, a friend/interest
// split, uniform same-country friend adds with high reciprocation,
// fitness-proportional interest adds routed through the Fig 10 country
// mixing matrix with rare reciprocation, dormant users who never add.
// Triadic closure and community cliques are deliberately absent — both
// need neighborhood lookups, i.e. the graph we refuse to hold (ROADMAP
// item 3's motif counts must come from the in-RAM generator). Degree
// tails, reciprocity, country mixing and the SCC structure survive.
//
// Everything is deterministic in the seed, and *restartable*: each node's
// randomness comes from a per-node forked stream, so replaying
// `stream_edges` yields the identical edge sequence — which is exactly
// what OutOfCoreSnapshotBuilder's crash-resume contract needs — and
// `profile(u)` is random-access (any order, any number of times).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "geo/world.h"
#include "graph/types.h"
#include "stats/discrete.h"
#include "synth/config.h"
#include "synth/population.h"
#include "synth/profile.h"
#include "synth/profile_gen.h"

namespace gplus::synth {

struct StreamGenConfig {
  std::size_t node_count = 1'000'000;
  /// Sign-up-and-leave fraction (never adds; may be added, rarely back).
  double dormant_fraction = 0.25;
  /// Planned-adds Pareto: CCDF exponent / scale / hard cap. The xmin
  /// default is tuned lower than GraphGenConfig's because this generator
  /// has no community mechanism inflating low-degree mass. The mean degree
  /// (unique edges per node; paper 16.4) drifts up with n: seed 42 gives
  /// 16.56 at 1M nodes and 18.79 at the paper's 35.1M.
  double out_alpha = 1.05;
  double out_xmin = 3.5;
  std::uint32_t out_degree_cap = 5'000;
  /// Audience-fitness tail and the celebrity layer on top of it.
  double fitness_alpha = 0.95;
  double celebrity_fraction = 0.004;
  double celebrity_fitness_boost = 40.0;
  /// Friend/interest split and reciprocation, as in GraphGenConfig.
  double social_fraction = 0.80;
  double friend_budget_social = 30.0;
  double friend_budget_consumer = 1.0;
  double friend_reciprocation = 0.64;
  double interest_reciprocation = 0.015;
  double celebrity_reciprocation = 0.01;
  std::uint64_t seed = 42;
  /// Profile model (Table 2/3 knobs) for `profile(u)`.
  ProfileGenConfig profile;
};

/// O(n)-state generator. Construction samples the latent per-node state
/// (serial, deterministic); streaming and profile access never mutate it.
class StreamingGraphGen {
 public:
  StreamingGraphGen(const StreamGenConfig& config,
                    const PopulationModel& population, const geo::World& world);

  std::size_t node_count() const noexcept { return config_.node_count; }

  /// Replays the full edge stream into `emit(src, dst)`. Duplicate edges
  /// and self-loops may appear (reciprocation, self-picks) — snapshot
  /// builders drop them. Identical sequence on every call. Returns the
  /// number of emitted (pre-dedup) edges.
  std::uint64_t stream_edges(
      const std::function<void(graph::NodeId, graph::NodeId)>& emit) const;

  /// The user's public profile — random access, deterministic per node.
  Profile profile(graph::NodeId u) const;

  bool is_celebrity(graph::NodeId u) const noexcept {
    return celebrity_[u] != 0;
  }
  bool is_dormant(graph::NodeId u) const noexcept { return dormant_[u] != 0; }
  geo::CountryId country_of(graph::NodeId u) const noexcept {
    return country_[u];
  }

 private:
  stats::Rng node_rng(graph::NodeId u, std::uint64_t salt) const noexcept;

  StreamGenConfig config_;
  const PopulationModel* population_;
  const geo::World* world_;
  ProfileGenerator profile_gen_;
  std::vector<geo::CountryId> country_;
  std::vector<std::uint8_t> celebrity_;
  std::vector<std::uint8_t> dormant_;
  std::vector<std::uint8_t> social_;
  std::vector<float> fitness_;
  /// Per-country member lists and fitness-weighted samplers for interest
  /// targets (uniform draws over the same lists serve friend targets).
  std::vector<std::vector<graph::NodeId>> members_;
  std::vector<stats::DiscreteDistribution> samplers_;
};

}  // namespace gplus::synth
