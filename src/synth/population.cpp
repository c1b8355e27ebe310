#include "synth/population.h"

#include <algorithm>
#include <map>
#include <string_view>

#include "stats/expect.h"

namespace gplus::synth {

namespace {

struct Calibration {
  double share;      // Fig 6 / Table 3 located-user share
  double openness;   // Fig 8 ordering
  double tel_mult;   // Table 3 tel-user location skew
  double self_link;  // Fig 10 self-loop weight
};

// Paper-anchored rows. Shares for the top 10 are read off Fig 6 / Table 3;
// openness means follow the Fig 8 ranking (ID > MX > US > BR > GB > ES >
// CA > IT > IN > DE); tel multipliers are the Table 3 tel-share /
// all-share ratios; self-link weights are the Fig 10 self-loop edges.
// Tail-country shares split Table 3's 30.95% "Other" mass with the
// paper's §4.1 observations baked in: China / Japan / Russia depressed far
// below their Internet population (blocked service or dominant domestic
// networks — Mixi, Odnoklassniki, QQ), Taiwan / Thailand / Vietnam
// elevated (Fig 7a shows them in the top-ten adopters).
const std::map<std::string_view, Calibration>& calibrated() {
  static const std::map<std::string_view, Calibration> rows = {
      {"US", {0.3138, 0.570, 0.284, 0.79}},
      {"IN", {0.1671, 0.525, 1.909, 0.77}},
      {"BR", {0.0576, 0.560, 0.820, 0.78}},
      {"GB", {0.0335, 0.550, 0.654, 0.30}},
      {"CA", {0.0230, 0.540, 0.661, 0.33}},
      {"DE", {0.0220, 0.480, 0.400, 0.38}},
      {"ID", {0.0210, 0.605, 1.500, 0.74}},
      {"MX", {0.0190, 0.590, 1.300, 0.46}},
      {"IT", {0.0175, 0.535, 1.100, 0.56}},
      {"ES", {0.0160, 0.545, 1.000, 0.49}},
      // ---- named tail countries (each below the top-10 cutoff of 1.6%,
      //      so Fig 6's top ten comes out exactly as the paper's) ----
      {"RU", {0.0120, 0.550, 1.250, 0.70}},
      {"FR", {0.0130, 0.545, 1.000, 0.50}},
      {"VN", {0.0130, 0.560, 1.400, 0.70}},
      {"CN", {0.0080, 0.530, 1.400, 0.80}},
      {"TH", {0.0110, 0.570, 1.250, 0.55}},
      {"JP", {0.0080, 0.520, 0.700, 0.65}},
      {"TW", {0.0120, 0.560, 1.000, 0.55}},
      {"AR", {0.0090, 0.565, 1.100, 0.50}},
      {"AU", {0.0110, 0.555, 0.800, 0.30}},
      {"IR", {0.0080, 0.540, 1.200, 0.65}},
      {"KR", {0.0060, 0.540, 0.900, 0.55}},
      {"NL", {0.0070, 0.545, 0.800, 0.35}},
      {"TR", {0.0110, 0.570, 1.250, 0.65}},
      {"PH", {0.0110, 0.580, 1.300, 0.45}},
      // ---- the ~150-country long tail, aggregated (sums to 1.0 with the
      //      rows above) ----
      {"ZZ", {0.1695, 0.555, 1.250, 0.55}},
  };
  return rows;
}

}  // namespace

PopulationModel::PopulationModel()
    : country_sampler_(std::vector<double>{1.0}) {  // replaced below
  const auto all = geo::countries();
  const auto& cal = calibrated();

  params_.resize(all.size());

  // Countries without a calibrated share split the remaining mass in
  // proportion to their Internet population.
  double calibrated_share = 0.0;
  double uncalibrated_netpop = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (auto it = cal.find(all[i].code); it != cal.end()) {
      calibrated_share += it->second.share;
    } else {
      uncalibrated_netpop += all[i].internet_population();
    }
  }
  const double residual = std::max(0.0, 1.0 - calibrated_share);

  for (std::size_t i = 0; i < all.size(); ++i) {
    CountryParams& p = params_[i];
    if (auto it = cal.find(all[i].code); it != cal.end()) {
      p.user_share = it->second.share;
      p.openness_mean = it->second.openness;
      p.tel_multiplier = it->second.tel_mult;
      p.self_link_weight = it->second.self_link;
    } else {
      // Only reachable if the embedded country table grows beyond the
      // calibrated rows above.
      p.user_share = uncalibrated_netpop == 0.0
                         ? 0.0
                         : residual * all[i].internet_population() /
                               uncalibrated_netpop;
      p.openness_mean = 0.55;
      p.tel_multiplier = 1.25;  // Table 3 "Other" bucket skew
      // Heuristic from Fig 10's pattern: big non-English countries look
      // inward; small or anglophone ones look outward.
      const bool english = all[i].primary_language == "en";
      const bool big = all[i].population > 80'000'000;
      p.self_link_weight = english ? 0.35 : (big ? 0.70 : 0.50);
    }
  }

  std::vector<double> shares;
  shares.reserve(params_.size());
  for (const auto& p : params_) shares.push_back(p.user_share);
  country_sampler_ = stats::DiscreteDistribution(shares);

  // Mixing rows: self mass = self_link_weight; cross mass split over other
  // countries by destination share boosted by affinity (shared language 3x,
  // US gravity 2.5x, same region 1.5x) — yielding Fig 10's dominant flux
  // into the US and the GB/CA -> US corridors.
  mixing_.reserve(params_.size());
  const auto us = geo::find_country("US");
  for (std::size_t from = 0; from < all.size(); ++from) {
    std::vector<double> row(all.size(), 0.0);
    double cross_total = 0.0;
    for (std::size_t to = 0; to < all.size(); ++to) {
      if (to == from) continue;
      double affinity = 1.0;
      if (all[from].primary_language == all[to].primary_language)
        affinity *= 3.0;
      if (us && to == *us) affinity *= 2.5;
      if (all[from].region == all[to].region) affinity *= 1.5;
      row[to] = params_[to].user_share * affinity;
      cross_total += row[to];
    }
    const double self = params_[from].self_link_weight;
    for (std::size_t to = 0; to < all.size(); ++to) {
      if (to != from) row[to] *= (1.0 - self) / cross_total;
    }
    row[from] = self;
    mixing_.emplace_back(std::span<const double>(row));
  }
}

const CountryParams& PopulationModel::params(geo::CountryId id) const {
  GPLUS_EXPECT(id < params_.size(), "country id out of range");
  return params_[id];
}

geo::CountryId PopulationModel::sample_country(stats::Rng& rng) const {
  return static_cast<geo::CountryId>(country_sampler_.sample(rng));
}

geo::CountryId PopulationModel::sample_target_country(geo::CountryId from,
                                                      stats::Rng& rng) const {
  GPLUS_EXPECT(from < mixing_.size(), "country id out of range");
  return static_cast<geo::CountryId>(mixing_[from].sample(rng));
}

std::vector<double> PopulationModel::mixing_row(geo::CountryId from) const {
  GPLUS_EXPECT(from < mixing_.size(), "country id out of range");
  std::vector<double> out(params_.size());
  for (std::size_t to = 0; to < out.size(); ++to) {
    out[to] = mixing_[from].probability(to);
  }
  return out;
}

}  // namespace gplus::synth
