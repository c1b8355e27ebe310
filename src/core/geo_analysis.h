// Geographic analyses over a Dataset — §4's figures (6 through 10).
//
// All of §4 operates on *located* users (those who share "places lived",
// 26.75% in the paper) and on edges between located users.
#pragma once

#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "stats/distribution.h"
#include "stats/rng.h"

namespace gplus::core {

// ----------------------------------------------------------------- Fig 6 ---
/// One country's share of located users.
struct CountryShare {
  geo::CountryId country = 0;
  std::uint64_t users = 0;
  double fraction = 0.0;  // of located users
};

/// Country shares among located users, descending (Fig 6 plots the top 10).
std::vector<CountryShare> located_country_shares(const Dataset& ds);

// ----------------------------------------------------------------- Fig 7 ---
/// One country's point in the GDP-vs-penetration planes.
struct PenetrationPoint {
  geo::CountryId country = 0;
  double gdp_per_capita = 0.0;
  std::uint64_t dataset_users = 0;   // located users in this country
  double gpr = 0.0;                  // dataset users / Internet population
  double gpr_relative = 0.0;         // gpr normalized so the max country = 1
  double ipr = 0.0;                  // Internet penetration rate
};

/// GPR/IPR per country, descending by GPR (Fig 7 plots the top 20).
std::vector<PenetrationPoint> penetration_by_country(const Dataset& ds);

// ----------------------------------------------------------------- Fig 8 ---
/// CCDF of shared field counts for located users of one country (the
/// minimum is 2: Name plus Places lived, as the paper notes).
std::vector<stats::CurvePoint> country_fields_ccdf(const Dataset& ds,
                                                   geo::CountryId country);

// ----------------------------------------------------------------- Fig 9 ---
/// Distance samples (miles) between located user pairs, per cohort.
struct PathMileSamples {
  std::vector<double> friends;     // any directed edge
  std::vector<double> reciprocal;  // mutually linked pairs
  std::vector<double> random;      // unlinked random pairs
};

/// Samples up to `max_pairs` distances per cohort (reservoir over the edge
/// stream for friends/reciprocal; rejection-sampled unlinked pairs for
/// random).
PathMileSamples sample_path_miles(const Dataset& ds, std::size_t max_pairs,
                                  stats::Rng& rng);

/// Fig 9(b): mean/stddev of friend-edge distances by source country.
struct CountryPathMiles {
  geo::CountryId country = 0;
  double mean_miles = 0.0;
  double stddev_miles = 0.0;
  std::uint64_t edges = 0;
};

/// Average path miles for the paper's top-10 countries.
std::vector<CountryPathMiles> path_miles_by_country(const Dataset& ds);

// ----------------------------------------------------------------- Fig 10 --
/// Country-to-country link weights over the top-10 countries.
struct CountryLinkGraph {
  std::vector<geo::CountryId> countries;      // paper_top10() order
  /// weight[i][j]: fraction of located edges sourced in countries[i] whose
  /// (located) target lives in countries[j]; rows sum to <= 1 (mass going
  /// outside the top 10 is dropped, as the figure omits small edges).
  std::vector<std::vector<double>> weight;

  double self_loop(std::size_t i) const { return weight[i][i]; }
};

/// Builds the Fig 10 mixing graph from the dataset's located edges.
CountryLinkGraph country_link_graph(const Dataset& ds);

}  // namespace gplus::core
