#include "synth/occupations.h"

#include <array>
#include <map>

namespace gplus::synth {

namespace {

using Weights = std::array<double, kOccupationCount>;

constexpr std::size_t idx(Occupation o) { return static_cast<std::size_t>(o); }

// Table 5 rows converted to weights: each appearance of a code in the
// country's top-10 list contributes one unit, with +0.2 smoothing so every
// occupation remains possible.
Weights from_counts(
    std::initializer_list<std::pair<Occupation, double>> counts) {
  Weights w{};
  w.fill(0.2);
  for (const auto& [o, c] : counts) w[idx(o)] += c;
  return w;
}

const std::map<std::string_view, Weights>& calibrated_rows() {
  using O = Occupation;
  static const std::map<std::string_view, Weights> rows = {
      // US: Co Mu IT Mu IT Mu Bu IT Mo Ac
      {"US", from_counts({{O::kComedian, 1}, {O::kMusician, 3},
                          {O::kInformationTech, 3}, {O::kBusinessman, 1},
                          {O::kModel, 1}, {O::kActor, 1}})},
      // IN: Mu So IT Mu Mo Mo IT Bu IT Mu
      {"IN", from_counts({{O::kMusician, 3}, {O::kSocialite, 1},
                          {O::kInformationTech, 3}, {O::kModel, 2},
                          {O::kBusinessman, 1}})},
      // BR: Co TV Jo Wr Ar Bl Bl Co Mu Co
      {"BR", from_counts({{O::kComedian, 3}, {O::kTvHost, 1},
                          {O::kJournalist, 1}, {O::kWriter, 1},
                          {O::kArtist, 1}, {O::kBlogger, 2},
                          {O::kMusician, 1}})},
      // GB: Bu Mu IT IT Mu Mu IT Mo So IT
      {"GB", from_counts({{O::kBusinessman, 1}, {O::kMusician, 3},
                          {O::kInformationTech, 4}, {O::kModel, 1},
                          {O::kSocialite, 1}})},
      // CA: IT IT Mu Co Bu Ac IT Mu Co Ac
      {"CA", from_counts({{O::kInformationTech, 3}, {O::kMusician, 2},
                          {O::kComedian, 2}, {O::kBusinessman, 1},
                          {O::kActor, 2}})},
      // DE: Bl IT IT Jo Bl IT Jo Ec Mu Bl
      {"DE", from_counts({{O::kBlogger, 3}, {O::kInformationTech, 3},
                          {O::kJournalist, 2}, {O::kEconomist, 1},
                          {O::kMusician, 1}})},
      // ID: Mu IT So Mo Mo IT Mu Ec Ph Jo
      {"ID", from_counts({{O::kMusician, 2}, {O::kInformationTech, 2},
                          {O::kSocialite, 1}, {O::kModel, 2},
                          {O::kEconomist, 1}, {O::kPhotographer, 1},
                          {O::kJournalist, 1}})},
      // MX: Mu Mu Mu IT Mu Bl Bl Mu Ac Jo
      {"MX", from_counts({{O::kMusician, 5}, {O::kInformationTech, 1},
                          {O::kBlogger, 2}, {O::kActor, 1},
                          {O::kJournalist, 1}})},
      // IT: Jo Jo IT IT Jo IT Jo Mu Mu IT
      {"IT", from_counts({{O::kJournalist, 4}, {O::kInformationTech, 4},
                          {O::kMusician, 2}})},
      // ES: Jo Po Po IT Mu Mu IT Mu Po IT
      {"ES", from_counts({{O::kJournalist, 1}, {O::kPolitician, 3},
                          {O::kInformationTech, 3}, {O::kMusician, 3}})},
  };
  return rows;
}

// Global fallback mix for countries outside Table 5: the paper's global
// top-20 (Table 1) blend — IT-heavy with musicians, actors, bloggers.
const Weights& global_celebrity_mix() {
  using O = Occupation;
  static const Weights w = from_counts({{O::kInformationTech, 7},
                                        {O::kMusician, 3},
                                        {O::kModel, 2},
                                        {O::kActor, 2},
                                        {O::kBlogger, 2},
                                        {O::kComedian, 1},
                                        {O::kBusinessman, 1},
                                        {O::kSocialite, 1},
                                        {O::kWriter, 1}});
  return w;
}

const Weights& ordinary_mix() {
  using O = Occupation;
  // Ordinary users skew toward everyday job families; exact mix only
  // influences the occupation strings of non-celebrities.
  static const Weights w = from_counts({{O::kInformationTech, 3},
                                        {O::kBusinessman, 2.5},
                                        {O::kArtist, 1.5},
                                        {O::kWriter, 1.2},
                                        {O::kPhotographer, 1.2},
                                        {O::kJournalist, 1},
                                        {O::kMusician, 1},
                                        {O::kEconomist, 0.8}});
  return w;
}

}  // namespace

std::span<const double> celebrity_occupation_weights(geo::CountryId country) {
  if (country != geo::kNoCountry) {
    const auto& rows = calibrated_rows();
    const auto it = rows.find(geo::country(country).code);
    if (it != rows.end()) return it->second;
  }
  return global_celebrity_mix();
}

std::span<const double> ordinary_occupation_weights() { return ordinary_mix(); }

Occupation sample_celebrity_occupation(geo::CountryId country,
                                       stats::Rng& rng) {
  const auto weights = celebrity_occupation_weights(country);
  const stats::DiscreteDistribution dist(weights);
  return static_cast<Occupation>(dist.sample(rng));
}

Occupation sample_ordinary_occupation(stats::Rng& rng) {
  static const stats::DiscreteDistribution dist(ordinary_occupation_weights());
  return static_cast<Occupation>(dist.sample(rng));
}

}  // namespace gplus::synth
