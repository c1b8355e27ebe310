#include <gtest/gtest.h>

#include <map>

#include "stats/rng.h"
#include "synth/occupations.h"
#include "synth/population.h"

namespace gplus::synth {
namespace {

TEST(Occupations, CalibratedRowsMatchTable5Flavor) {
  const auto us = *geo::find_country("US");
  const auto es = *geo::find_country("ES");
  const auto it_country = *geo::find_country("IT");
  const auto mx = *geo::find_country("MX");

  const auto us_w = celebrity_occupation_weights(us);
  // US row is IT + musician heavy.
  EXPECT_GT(us_w[static_cast<std::size_t>(Occupation::kInformationTech)], 2.0);
  EXPECT_GT(us_w[static_cast<std::size_t>(Occupation::kMusician)], 2.0);
  // No politicians in the US top list.
  EXPECT_LT(us_w[static_cast<std::size_t>(Occupation::kPolitician)], 0.5);

  // Spain is the only country with politicians among the top users.
  const auto es_w = celebrity_occupation_weights(es);
  EXPECT_GT(es_w[static_cast<std::size_t>(Occupation::kPolitician)], 2.0);

  // Italy is journalist-heavy.
  const auto it_w = celebrity_occupation_weights(it_country);
  EXPECT_GT(it_w[static_cast<std::size_t>(Occupation::kJournalist)], 3.0);

  // Mexico is dominated by musicians (5 of 10).
  const auto mx_w = celebrity_occupation_weights(mx);
  EXPECT_GT(mx_w[static_cast<std::size_t>(Occupation::kMusician)], 4.0);
}

TEST(Occupations, UncalibratedCountryFallsBackToGlobalMix) {
  const auto kr = *geo::find_country("KR");
  const auto fallback = celebrity_occupation_weights(kr);
  const auto no_country = celebrity_occupation_weights(geo::kNoCountry);
  for (std::size_t i = 0; i < kOccupationCount; ++i) {
    EXPECT_DOUBLE_EQ(fallback[i], no_country[i]);
  }
  // Global mix is IT-dominated (7 of the paper's top 20).
  EXPECT_GT(fallback[static_cast<std::size_t>(Occupation::kInformationTech)],
            fallback[static_cast<std::size_t>(Occupation::kMusician)]);
}

TEST(Occupations, SamplersProduceCalibratedFrequencies) {
  stats::Rng rng(1);
  const auto mx = *geo::find_country("MX");
  std::map<Occupation, int> counts;
  constexpr int kDraws = 20'000;
  for (int i = 0; i < kDraws; ++i)
    ++counts[sample_celebrity_occupation(mx, rng)];
  // Musicians carry 5 + smoothing of ~13 total weight ≈ 40%.
  EXPECT_NEAR(static_cast<double>(counts[Occupation::kMusician]) / kDraws, 0.40,
              0.05);
}

TEST(Occupations, OrdinarySamplerCoversEnum) {
  stats::Rng rng(2);
  std::map<Occupation, int> counts;
  for (int i = 0; i < 50'000; ++i) ++counts[sample_ordinary_occupation(rng)];
  // Smoothing keeps every occupation possible.
  EXPECT_EQ(counts.size(), kOccupationCount);
}

TEST(Population, SharesSumToOne) {
  const PopulationModel model;
  double total = 0.0;
  for (geo::CountryId c = 0; c < geo::country_count(); ++c) {
    total += model.params(c).user_share;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Population, CalibratedSharesMatchTable3) {
  const PopulationModel model;
  EXPECT_NEAR(model.params(*geo::find_country("US")).user_share, 0.3138, 1e-9);
  EXPECT_NEAR(model.params(*geo::find_country("IN")).user_share, 0.1671, 1e-9);
  EXPECT_NEAR(model.params(*geo::find_country("BR")).user_share, 0.0576, 1e-9);
}

TEST(Population, SampleCountryMatchesShares) {
  const PopulationModel model;
  stats::Rng rng(3);
  std::vector<int> counts(geo::country_count(), 0);
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) ++counts[model.sample_country(rng)];
  const auto us = *geo::find_country("US");
  EXPECT_NEAR(static_cast<double>(counts[us]) / kDraws, 0.3138, 0.01);
}

TEST(Population, OpennessOrderingFollowsFig8) {
  const PopulationModel model;
  const auto openness = [&](const char* code) {
    return model.params(*geo::find_country(code)).openness_mean;
  };
  // Fig 8: Indonesia and Mexico most open, Germany most conservative.
  EXPECT_GT(openness("ID"), openness("US"));
  EXPECT_GT(openness("MX"), openness("GB"));
  EXPECT_LT(openness("DE"), openness("IN"));
  for (geo::CountryId c = 0; c < geo::country_count(); ++c) {
    EXPECT_LT(openness("DE"), model.params(c).openness_mean + 1e-12);
  }
}

TEST(Population, TelMultipliersFollowTable3) {
  const PopulationModel model;
  const auto mult = [&](const char* code) {
    return model.params(*geo::find_country(code)).tel_multiplier;
  };
  EXPECT_LT(mult("US"), 0.5);   // US heavily under-represented among tel-users
  EXPECT_GT(mult("IN"), 1.5);   // India over-represented ~2x
  EXPECT_GT(mult("IN"), mult("BR"));
}

TEST(Population, MixingRowsAreDistributions) {
  const PopulationModel model;
  for (geo::CountryId c = 0; c < geo::country_count(); ++c) {
    const auto row = model.mixing_row(c);
    double total = 0.0;
    for (double w : row) {
      EXPECT_GE(w, 0.0);
      total += w;
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << geo::country(c).code;
  }
}

TEST(Population, SelfLinkWeightsMatchFig10) {
  const PopulationModel model;
  const auto self = [&](const char* code) {
    const auto id = *geo::find_country(code);
    return model.mixing_row(id)[id];
  };
  EXPECT_NEAR(self("US"), 0.79, 1e-9);
  EXPECT_NEAR(self("GB"), 0.30, 1e-9);
  EXPECT_NEAR(self("BR"), 0.78, 1e-9);
  // Inward-looking countries beat outward-looking ones.
  EXPECT_GT(self("IN"), self("CA"));
  EXPECT_GT(self("ID"), self("DE"));
}

TEST(Population, CrossCountryMassFlowsToUs) {
  const PopulationModel model;
  const auto us = *geo::find_country("US");
  const auto gb = *geo::find_country("GB");
  const auto row = model.mixing_row(gb);
  // The US is GB's largest foreign destination (Fig 10: 0.36).
  for (geo::CountryId c = 0; c < geo::country_count(); ++c) {
    if (c == gb || c == us) continue;
    EXPECT_GT(row[us], row[c]);
  }
  EXPECT_GT(row[us], 0.2);
}

TEST(Population, SampleTargetCountryHonorsRow) {
  const PopulationModel model;
  stats::Rng rng(5);
  const auto br = *geo::find_country("BR");
  int self = 0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) {
    self += model.sample_target_country(br, rng) == br;
  }
  EXPECT_NEAR(static_cast<double>(self) / kDraws, 0.78, 0.02);
}

TEST(Population, InvalidIdsRejected) {
  const PopulationModel model;
  EXPECT_THROW(model.params(geo::country_count()), std::invalid_argument);
  EXPECT_THROW(model.mixing_row(geo::kNoCountry), std::invalid_argument);
}

}  // namespace
}  // namespace gplus::synth
