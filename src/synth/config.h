// Generator configuration and presets.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gplus::synth {

/// Knobs of the synthetic social-network generator. Defaults target the
/// Google+ snapshot of the paper (Table 4 row: mean degree 16.4, global
/// reciprocity 32%, in/out CCDF exponents ~1.3/1.2, out-degree cliff at
/// 5,000, giant SCC ~70% of nodes).
struct GraphGenConfig {
  /// Number of users.
  std::size_t node_count = 200'000;

  /// Fraction of registered accounts that never add anyone (sign-up-and-
  /// leave users; they may still be added and may not add back). Keeps the
  /// giant SCC at the paper's ~70% of nodes instead of ~100%.
  double dormant_fraction = 0.25;

  // -- Out-degree (initiated adds) -----------------------------------------
  /// CCDF exponent of the planned-adds distribution (paper fits 1.2).
  double out_alpha = 1.05;
  /// Scale (minimum) of the planned-adds Pareto draw.
  double out_xmin = 4.2;
  /// Hard cap on out-degree for non-exempt users (Google's circle policy).
  std::uint32_t out_degree_cap = 5'000;
  /// Whether the cap is enforced at all (ablation knob for Fig 3).
  bool enforce_out_cap = true;

  // -- Audience / in-degree -------------------------------------------------
  /// CCDF exponent of the fitness (audience attractiveness) distribution;
  /// in-degree inherits this tail (paper fits 1.3).
  double fitness_alpha = 0.95;
  /// Fraction of users designated celebrities (top of the fitness order).
  /// Higher than the real-world share so that, at simulation scale, every
  /// top-10 country still holds enough public figures for Table 5's
  /// per-country top lists.
  double celebrity_fraction = 0.004;

  // -- Reciprocity -----------------------------------------------------------
  /// Probability a *friend* add is added back.
  double friend_reciprocation = 0.64;
  /// Probability an *interest* add to an ordinary user is added back.
  double interest_reciprocation = 0.015;
  /// Probability a celebrity adds anyone back.
  double celebrity_reciprocation = 0.01;
  /// Fraction of active users who are "social" types (friend-driven usage);
  /// the rest are "consumers" who mostly follow interest targets. The split
  /// reconciles Fig 4a's high per-user RR with the 32% edge-level rate.
  double social_fraction = 0.80;
  /// Mean friend budget (shifted exponential) for social users...
  double friend_budget_social = 30.0;
  /// ...and for consumer users.
  double friend_budget_consumer = 1.0;

  // -- Communities & geography ---------------------------------------------
  /// Mean size of the offline communities (school / workplace / family
  /// cliques) users are partitioned into within their city. Friend adds
  /// concentrate inside the community, creating the dense triangle
  /// neighborhoods behind Fig 4b's clustering CDF.
  double community_size_mean = 5.0;
  /// Probability a friend add stays inside the user's own community.
  double community_bias = 0.95;
  /// Probability a non-community friend add stays in the user's own city.
  double same_city_bias = 0.65;
  /// Probability a friend add short-circuits to a friend-of-friend
  /// (triadic closure; adds transitive triangles on top of communities).
  double triadic_closure = 0.75;
  /// Probability a *domestic interest* add targets the user's own city
  /// (local journalists, club acts, city bloggers) instead of the whole
  /// country; keeps the Fig 9 friend-distance CDF near the paper's 58%
  /// within a thousand miles.
  double local_interest_bias = 0.35;
  /// Global scale on cross-country edges: 1 = calibrated Fig 10 mixing,
  /// 0 = all edges domestic (ablation knob for Fig 9).
  double geo_mixing = 1.0;

  std::uint64_t seed = 42;
};

/// Profile-generation knobs; defaults are calibrated to Tables 2 and 3.
struct ProfileGenConfig {
  /// Baseline tel-user (public phone) rate — paper: 72,736 / 27.5M.
  double tel_user_rate = 0.0026;
  /// Exponential tilt of disclosure toward open users; larger values widen
  /// the Fig 2 gap between tel-users and the population.
  double openness_tilt = 4.5;
  /// Extra tilt applied to the tel-user decision itself.
  double tel_openness_tilt = 9.0;
  std::uint64_t seed = 43;
};

/// Preset: the paper's Google+ snapshot (the defaults above).
GraphGenConfig google_plus_preset(std::size_t nodes, std::uint64_t seed = 42);

/// Preset: Twitter-like baseline — weaker reciprocity (target 22%), media
/// hubs, no out-degree cap (Table 4 comparison row).
GraphGenConfig twitter_like_preset(std::size_t nodes, std::uint64_t seed = 42);

/// Preset: Facebook-like baseline — fully reciprocal friendship graph with
/// higher mean degree and strong locality (Table 4 comparison row).
GraphGenConfig facebook_like_preset(std::size_t nodes, std::uint64_t seed = 42);

}  // namespace gplus::synth
