// Node-level and structural analyses over a Dataset — one function per
// paper table / figure of §3.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/bfs.h"
#include "core/dataset.h"
#include "stats/distribution.h"

namespace gplus::core {

// ---------------------------------------------------------------- Table 1 --
/// One row of the top-users ranking.
struct TopUser {
  graph::NodeId node = 0;
  std::uint64_t in_degree = 0;
  std::string name;
  synth::Occupation occupation = synth::Occupation::kInformationTech;
  geo::CountryId country = geo::kNoCountry;
  bool celebrity = false;
};

/// Top `k` users by in-degree with their profile context (Table 1).
std::vector<TopUser> top_users(const Dataset& ds, std::size_t k);

/// Share of a top-user list with an IT occupation (the paper highlights
/// 7 of the global top 20).
double it_fraction(const std::vector<TopUser>& users);

// ---------------------------------------------------------------- Table 2 --
/// One Table 2 row: users sharing the attribute publicly.
struct AttributeAvailability {
  synth::Attribute attribute = synth::Attribute::kName;
  std::uint64_t available = 0;
  double fraction = 0.0;
};

/// Availability of every attribute, in Table 2's order.
std::vector<AttributeAvailability> attribute_availability(const Dataset& ds);

// ---------------------------------------------------------------- Table 3 --
/// Table 3 column (all users, or the tel-user cohort): shares of gender,
/// relationship status, and location among those who disclose each field.
struct CohortBreakdown {
  std::uint64_t total = 0;
  std::uint64_t gender_n = 0;
  std::array<double, synth::kGenderCount> gender_share{};
  std::uint64_t relationship_n = 0;
  std::array<double, synth::kRelationshipCount> relationship_share{};
  std::uint64_t location_n = 0;
  /// Shares of the Table 3 location rows: US, IN, BR, GB, CA, then Other.
  std::array<double, 6> location_share{};
};

/// Computes a Table 3 column. `tel_only` restricts to tel-users.
CohortBreakdown cohort_breakdown(const Dataset& ds, bool tel_only);

// ----------------------------------------------------------------- Fig 2 ---
/// CCDF of the number of shared profile fields (Work/Home contact excluded,
/// matching the figure), for the whole population or the tel-user cohort.
std::vector<stats::CurvePoint> fields_shared_ccdf(const Dataset& ds,
                                                  bool tel_only);

// ---------------------------------------------------------------- Table 4 --
/// Our measured counterpart of a Table 4 row.
struct StructuralSummary {
  std::size_t nodes = 0;
  std::uint64_t edges = 0;
  double mean_degree = 0.0;
  double reciprocity = 0.0;
  double path_length = 0.0;          // directed mean over reachable pairs
  std::uint32_t diameter_lower_bound = 0;
  double giant_scc_fraction = 0.0;
  double in_alpha = 0.0;             // power-law fits (CCDF exponents)
  double out_alpha = 0.0;
};

/// Full structural pipeline over a graph. `path_sources` bounds the BFS
/// sample (the paper used up to 10,000 sources).
StructuralSummary structural_summary(const graph::DiGraph& g,
                                     std::size_t path_sources, stats::Rng& rng);

// ---------------------------------------------------------------- Table 5 --
/// One Table 5 row: the occupation codes of a country's top-k located users
/// and the Jaccard similarity of that occupation set vs the US row.
struct CountryTopOccupations {
  geo::CountryId country = 0;
  std::vector<synth::Occupation> occupations;  // in rank order
  double jaccard_vs_us = 0.0;
};

/// Table 5 for the paper's top-10 countries (rank by in-degree among
/// located users of each country).
std::vector<CountryTopOccupations> occupations_by_country(const Dataset& ds,
                                                          std::size_t k = 10);

}  // namespace gplus::core
