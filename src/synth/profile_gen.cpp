#include "synth/profile_gen.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "stats/discrete.h"
#include "stats/expect.h"
#include "synth/occupations.h"

namespace gplus::synth {

namespace {

// Table 2 "%" column as fractions. Work/Home contact carry 0 here because
// the tel-user model owns them.
constexpr std::array<double, kAttributeCount> kBaseRates = {
    1.0000,  // Name (public by default, cannot be hidden)
    0.9767,  // Gender
    0.2711,  // Education
    0.2675,  // Places lived
    0.2147,  // Employment
    0.1479,  // Phrase
    0.1348,  // Other profiles
    0.1327,  // Occupation
    0.1315,  // Contributor to
    0.0780,  // Introduction
    0.0439,  // Other names
    0.0431,  // Relationship
    0.0390,  // Braggin rights
    0.0363,  // Recommended links
    0.0274,  // Looking for
    0.0,     // Work (contact) — tel model
    0.0,     // Home (contact) — tel model
};

// Table 3, all-users column.
constexpr std::array<double, kGenderCount> kGenderShares = {0.6765, 0.3146,
                                                            0.0089};
constexpr std::array<double, kRelationshipCount> kRelationshipShares = {
    0.4282, 0.2659, 0.1980, 0.0316, 0.0439, 0.0126, 0.0050, 0.0108, 0.0039};

// Table 3: (tel-user column share) / (all-user column share).
constexpr std::array<double, kGenderCount> kTelGenderMult = {
    0.8599 / 0.6765, 0.1126 / 0.3146, 0.0275 / 0.0089};
constexpr std::array<double, kRelationshipCount> kTelRelationshipMult = {
    0.5724 / 0.4282, 0.2103 / 0.2659, 0.1023 / 0.1980,
    0.0398 / 0.0316, 0.0298 / 0.0439, 0.0277 / 0.0126,
    0.0058 / 0.0050, 0.0077 / 0.0108, 0.0041 / 0.0039};

// Conditional field probabilities inside the tel cohort, from Table 2's
// counts: work 60,434/72,736 and home 58,876/72,736.
constexpr double kWorkGivenTel = 0.831;
constexpr double kHomeGivenTel = 0.809;

// Openness scatter around the country mean.
constexpr double kOpennessSpread = 0.16;

}  // namespace

double attribute_base_rate(Attribute a) noexcept {
  return kBaseRates[static_cast<std::size_t>(a)];
}

double gender_base_share(Gender g) noexcept {
  return kGenderShares[static_cast<std::size_t>(g)];
}

double relationship_base_share(Relationship r) noexcept {
  return kRelationshipShares[static_cast<std::size_t>(r)];
}

double tel_gender_multiplier(Gender g) noexcept {
  return kTelGenderMult[static_cast<std::size_t>(g)];
}

double tel_relationship_multiplier(Relationship r) noexcept {
  return kTelRelationshipMult[static_cast<std::size_t>(r)];
}

ProfileGenerator::ProfileGenerator(const ProfileGenConfig& config,
                                   const PopulationModel& population)
    : config_(config), population_(&population) {
  GPLUS_EXPECT(config.tel_user_rate >= 0.0 && config.tel_user_rate <= 1.0,
               "tel rate must be a probability");
  // Monte-Carlo estimate of the population-mean tilt weights (country mix
  // times within-country openness scatter). Deterministic: own seed stream.
  stats::Rng rng(config.seed ^ 0x9E3779B97F4A7C15ULL);
  constexpr int kSamples = 50'000;
  std::vector<double> tilt_sample;
  tilt_sample.reserve(kSamples);
  double sum_d = 0.0, sum_t = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const geo::CountryId c = population.sample_country(rng);
    const double o = sample_openness(c, rng);
    tilt_sample.push_back(std::exp(config_.openness_tilt * o));
    sum_d += tilt_sample.back();
    sum_t += std::exp(config_.tel_openness_tilt * o);
  }
  mean_disclosure_weight_ = sum_d / kSamples;
  mean_tel_weight_ = sum_t / kSamples;
  for (auto& t : tilt_sample) t /= mean_disclosure_weight_;

  // Clamp correction: min(1, base * tilt) has a population mean below
  // `base` whenever the clamp bites (high-base fields like Gender, or
  // strongly tilted users). Solve a per-attribute factor by fixed point so
  // the realized marginal matches Table 2.
  clamp_correction_.fill(1.0);
  for (Attribute a : all_attributes()) {
    const double base = attribute_base_rate(a);
    if (base <= 0.0 || base >= 1.0) continue;
    double factor = 1.0;
    for (int round = 0; round < 12; ++round) {
      double mean = 0.0;
      for (double t : tilt_sample) mean += std::min(1.0, base * factor * t);
      mean /= static_cast<double>(tilt_sample.size());
      if (mean <= 0.0) break;
      factor *= base / mean;
    }
    clamp_correction_[static_cast<std::size_t>(a)] = factor;
  }
}

double ProfileGenerator::disclosure_probability(
    Attribute a, double openness) const noexcept {
  const double base = attribute_base_rate(a);
  const double factor = clamp_correction_[static_cast<std::size_t>(a)];
  return std::min(1.0, base * factor * disclosure_tilt(openness));
}

double ProfileGenerator::sample_openness(geo::CountryId country,
                                         stats::Rng& rng) const {
  const double mu = country == geo::kNoCountry
                        ? 0.55
                        : population_->params(country).openness_mean;
  return std::clamp(mu + kOpennessSpread * rng.next_normal(), 0.02, 0.98);
}

double ProfileGenerator::disclosure_tilt(double openness) const noexcept {
  return std::exp(config_.openness_tilt * openness) / mean_disclosure_weight_;
}

double ProfileGenerator::tel_tilt(double openness) const noexcept {
  return std::exp(config_.tel_openness_tilt * openness) / mean_tel_weight_;
}

Profile ProfileGenerator::generate(geo::CountryId country, bool celebrity,
                                   geo::LatLon home, stats::Rng& rng) const {
  static const stats::DiscreteDistribution gender_dist{
      std::span<const double>(kGenderShares)};
  static const stats::DiscreteDistribution relationship_dist{
      std::span<const double>(kRelationshipShares)};

  Profile p;
  p.country = country;
  p.home = home;
  p.celebrity = celebrity;
  p.gender = static_cast<Gender>(gender_dist.sample(rng));
  p.relationship = static_cast<Relationship>(relationship_dist.sample(rng));
  p.occupation = celebrity ? sample_celebrity_occupation(country, rng)
                           : sample_ordinary_occupation(rng);

  double openness = sample_openness(country, rng);
  // Public figures run open profiles — their "About" panel is their
  // audience interface (every Table 1 row has occupation and location).
  if (celebrity) openness = std::max(openness, 0.85);
  p.openness = static_cast<float>(openness);

  p.shared.set(Attribute::kName);  // public by default
  for (Attribute a : all_attributes()) {
    if (a == Attribute::kName || a == Attribute::kWorkContact ||
        a == Attribute::kHomeContact) {
      continue;
    }
    if (rng.next_bool(disclosure_probability(a, openness))) p.shared.set(a);
  }

  // Tel-user decision: base rate x gender x relationship x country x
  // openness tilt. The multipliers are calibrated ratios, so the overall
  // marginal stays near the base rate.
  double tel_prob = config_.tel_user_rate * tel_gender_multiplier(p.gender) *
                    tel_relationship_multiplier(p.relationship) *
                    tel_tilt(openness);
  if (country != geo::kNoCountry) {
    tel_prob *= population_->params(country).tel_multiplier;
  }
  if (rng.next_bool(std::min(1.0, tel_prob))) {
    const bool work = rng.next_bool(kWorkGivenTel);
    const bool home_contact = rng.next_bool(kHomeGivenTel);
    if (work) p.shared.set(Attribute::kWorkContact);
    if (home_contact) p.shared.set(Attribute::kHomeContact);
    if (!work && !home_contact) p.shared.set(Attribute::kWorkContact);
  }
  return p;
}

}  // namespace gplus::synth
