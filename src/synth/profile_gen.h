// Profile generator: turns latent user facts (country, celebrity status)
// into a Table 2 / Table 3-calibrated public profile.
//
// The model is a single latent "openness" score per user (country-dependent
// mean, Fig 8's ordering). Every disclosure decision is the field's global
// base rate (Table 2) exponentially tilted by openness, so the marginals
// match Table 2 while open users share many fields at once — which is what
// makes the tel-user cohort's field-count CCDF dominate the population's
// (Fig 2) without being wired in directly.
#pragma once

#include <array>
#include <vector>

#include "geo/world.h"
#include "stats/rng.h"
#include "synth/config.h"
#include "synth/population.h"
#include "synth/profile.h"

namespace gplus::synth {

/// Global base disclosure rate of each attribute (Table 2's "%") indexed by
/// Attribute; Work/Home contact are governed by the tel-user model instead.
double attribute_base_rate(Attribute a) noexcept;

/// Latent gender distribution (Table 3 all-user column).
double gender_base_share(Gender g) noexcept;

/// Latent relationship-status distribution (Table 3 all-user column).
double relationship_base_share(Relationship r) noexcept;

/// Tel-user propensity multiplier by gender (Table 3: tel share / all share).
double tel_gender_multiplier(Gender g) noexcept;

/// Tel-user propensity multiplier by relationship status.
double tel_relationship_multiplier(Relationship r) noexcept;

/// Generates profiles. Thread-compatible: `generate` is const and all
/// mutable state lives in the caller's Rng.
class ProfileGenerator {
 public:
  ProfileGenerator(const ProfileGenConfig& config,
                   const PopulationModel& population);

  /// Draws the latent openness score of a user in `country`.
  double sample_openness(geo::CountryId country, stats::Rng& rng) const;

  /// Generates one full profile. `country` may be kNoCountry (the user then
  /// can never be located); `home` is the pre-sampled home coordinate.
  Profile generate(geo::CountryId country, bool celebrity, geo::LatLon home,
                   stats::Rng& rng) const;

  /// The exponential-tilt weight exp(tilt * o) normalized by its population
  /// mean; exposed for tests.
  double disclosure_tilt(double openness) const noexcept;
  double tel_tilt(double openness) const noexcept;

  /// Clamp-corrected disclosure probability of attribute `a` for a user
  /// with the given openness: min(1, base * correction * tilt). The
  /// correction factor is solved at construction so the *population
  /// marginal* equals Table 2's base rate despite the min() clamp that
  /// would otherwise erode high-base fields like Gender.
  double disclosure_probability(Attribute a, double openness) const noexcept;

 private:
  ProfileGenConfig config_;
  const PopulationModel* population_;
  double mean_disclosure_weight_ = 1.0;  // E[exp(openness_tilt * o)]
  double mean_tel_weight_ = 1.0;         // E[exp(tel_openness_tilt * o)]
  std::array<double, kAttributeCount> clamp_correction_{};
};

}  // namespace gplus::synth
