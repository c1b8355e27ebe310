// Country-level population model for the synthetic network.
//
// Encodes three calibrated country signals:
//  * the share of (located) users per country — Figure 6 / Table 3;
//  * the per-country openness level ordering — Figure 8 (Indonesia/Mexico
//    most open, Germany most conservative) — and tel-user propensity
//    multipliers — Table 3 (India over-represented 2x, US 3.5x under);
//  * the country-to-country edge mixing matrix — Figure 10 (US/IN/BR/ID
//    inward-looking with self-loop weight ~0.75+, GB/CA outward-looking
//    ~0.3 with strong flux into the US).
#pragma once

#include <vector>

#include "geo/countries.h"
#include "stats/discrete.h"
#include "stats/rng.h"

namespace gplus::synth {

/// Per-country behavioral parameters.
struct CountryParams {
  /// Share of users living in this country (normalized over the table).
  double user_share = 0.0;
  /// Mean of the latent openness distribution (0..1).
  double openness_mean = 0.55;
  /// Multiplier on the tel-user (public phone number) probability.
  double tel_multiplier = 1.0;
  /// Target fraction of out-edges staying inside the country (Fig 10
  /// self-loop weight).
  double self_link_weight = 0.5;
};

/// The calibrated population model over the embedded geo::countries() table.
class PopulationModel {
 public:
  PopulationModel();

  /// Parameters for one country.
  const CountryParams& params(geo::CountryId id) const;

  /// Samples a home country (every user has one; whether it is *visible*
  /// is the profile generator's concern).
  geo::CountryId sample_country(stats::Rng& rng) const;

  /// Samples the target country for an edge whose source lives in `from`.
  geo::CountryId sample_target_country(geo::CountryId from,
                                       stats::Rng& rng) const;

  /// Row `from` of the mixing matrix: probability that an edge from `from`
  /// lands in each country (self included).
  std::vector<double> mixing_row(geo::CountryId from) const;

 private:
  std::vector<CountryParams> params_;
  std::vector<stats::DiscreteDistribution> mixing_;  // one row per country
  stats::DiscreteDistribution country_sampler_;
};

}  // namespace gplus::synth
