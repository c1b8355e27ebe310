#include "core/analysis.h"

#include <algorithm>

#include "algo/clustering.h"
#include "algo/degrees.h"
#include "algo/jaccard.h"
#include "algo/reciprocity.h"
#include "algo/scc.h"
#include "algo/topk.h"
#include "stats/expect.h"

namespace gplus::core {

using graph::NodeId;

std::vector<TopUser> top_users(const Dataset& ds, std::size_t k) {
  const auto ranked = algo::top_by_in_degree(ds.graph(), k);
  std::vector<TopUser> out;
  out.reserve(ranked.size());
  for (const auto& r : ranked) {
    const synth::Profile& p = ds.profiles[r.node];
    TopUser row;
    row.node = r.node;
    row.in_degree = r.score;
    row.name = synth::display_name(r.node, p);
    row.occupation = p.occupation;
    row.country = p.country;
    row.celebrity = p.celebrity;
    out.push_back(std::move(row));
  }
  return out;
}

double it_fraction(const std::vector<TopUser>& users) {
  if (users.empty()) return 0.0;
  std::size_t it = 0;
  for (const auto& u : users) {
    it += u.occupation == synth::Occupation::kInformationTech ? 1 : 0;
  }
  return static_cast<double>(it) / static_cast<double>(users.size());
}

std::vector<AttributeAvailability> attribute_availability(const Dataset& ds) {
  std::array<std::uint64_t, synth::kAttributeCount> counts{};
  for (const auto& p : ds.profiles) {
    for (auto a : synth::all_attributes()) {
      if (p.shared.test(a)) ++counts[static_cast<std::size_t>(a)];
    }
  }
  std::vector<AttributeAvailability> out;
  out.reserve(synth::kAttributeCount);
  const auto n = static_cast<double>(ds.user_count());
  for (auto a : synth::all_attributes()) {
    AttributeAvailability row;
    row.attribute = a;
    row.available = counts[static_cast<std::size_t>(a)];
    row.fraction = n == 0 ? 0.0 : static_cast<double>(row.available) / n;
    out.push_back(row);
  }
  // Table 2 lists attributes by decreasing availability (Name first).
  std::stable_sort(out.begin(), out.end(),
                   [](const AttributeAvailability& a, const AttributeAvailability& b) {
                     return a.available > b.available;
                   });
  return out;
}

CohortBreakdown cohort_breakdown(const Dataset& ds, bool tel_only) {
  CohortBreakdown out;
  std::array<std::uint64_t, synth::kGenderCount> gender{};
  std::array<std::uint64_t, synth::kRelationshipCount> relationship{};
  std::array<std::uint64_t, 6> location{};

  // Table 3's location rows.
  const std::array<geo::CountryId, 5> row_countries = {
      *geo::find_country("US"), *geo::find_country("IN"),
      *geo::find_country("BR"), *geo::find_country("GB"),
      *geo::find_country("CA")};

  for (NodeId u = 0; u < ds.user_count(); ++u) {
    const synth::Profile& p = ds.profiles[u];
    if (tel_only && !p.is_tel_user()) continue;
    ++out.total;
    if (p.shared.test(synth::Attribute::kGender)) {
      ++out.gender_n;
      ++gender[static_cast<std::size_t>(p.gender)];
    }
    if (p.shared.test(synth::Attribute::kRelationship)) {
      ++out.relationship_n;
      ++relationship[static_cast<std::size_t>(p.relationship)];
    }
    if (p.is_located()) {
      ++out.location_n;
      std::size_t slot = 5;  // Other
      for (std::size_t i = 0; i < row_countries.size(); ++i) {
        if (p.country == row_countries[i]) {
          slot = i;
          break;
        }
      }
      ++location[slot];
    }
  }

  for (std::size_t i = 0; i < gender.size(); ++i) {
    out.gender_share[i] = out.gender_n == 0
                              ? 0.0
                              : static_cast<double>(gender[i]) /
                                    static_cast<double>(out.gender_n);
  }
  for (std::size_t i = 0; i < relationship.size(); ++i) {
    out.relationship_share[i] =
        out.relationship_n == 0 ? 0.0
                                : static_cast<double>(relationship[i]) /
                                      static_cast<double>(out.relationship_n);
  }
  for (std::size_t i = 0; i < location.size(); ++i) {
    out.location_share[i] = out.location_n == 0
                                ? 0.0
                                : static_cast<double>(location[i]) /
                                      static_cast<double>(out.location_n);
  }
  return out;
}

std::vector<stats::CurvePoint> fields_shared_ccdf(const Dataset& ds,
                                                  bool tel_only) {
  // Fig 2 excludes the Work/Home contact fields from the tally.
  const std::uint32_t exclude =
      synth::AttributeMask::bit(synth::Attribute::kWorkContact) |
      synth::AttributeMask::bit(synth::Attribute::kHomeContact);
  std::vector<std::uint64_t> counts;
  for (const auto& p : ds.profiles) {
    if (tel_only && !p.is_tel_user()) continue;
    counts.push_back(static_cast<std::uint64_t>(p.shared.count(exclude)));
  }
  return stats::integer_ccdf(counts);
}

StructuralSummary structural_summary(const graph::DiGraph& g,
                                     std::size_t path_sources, stats::Rng& rng) {
  GPLUS_EXPECT(path_sources > 0, "need at least one BFS source");
  StructuralSummary s;
  s.nodes = g.node_count();
  s.edges = g.edge_count();
  s.mean_degree = g.mean_degree();
  s.reciprocity = algo::global_reciprocity(g);

  const auto in_dist = algo::in_degree_distribution(g, 3);
  const auto out_dist = algo::out_degree_distribution(g, 3);
  s.in_alpha = in_dist.power_law.alpha;
  s.out_alpha = out_dist.power_law.alpha;

  const auto sccs = algo::strongly_connected_components(g);
  s.giant_scc_fraction = sccs.giant_fraction();

  algo::PathLengthOptions opt;
  opt.initial_sources = std::max<std::size_t>(1, path_sources / 5);
  opt.max_sources = path_sources;
  const auto paths = algo::estimate_path_lengths(g, opt, rng);
  s.path_length = paths.mean;
  s.diameter_lower_bound = paths.diameter_lower_bound;
  return s;
}

std::vector<CountryTopOccupations> occupations_by_country(const Dataset& ds,
                                                          std::size_t k) {
  std::vector<CountryTopOccupations> out;
  const auto top10 = geo::paper_top10();
  const auto us = *geo::find_country("US");

  std::vector<int> us_codes;
  for (geo::CountryId c : top10) {
    const auto ranked = algo::top_by_in_degree_filtered(
        ds.graph(), k, [&](NodeId u) {
          return ds.profiles[u].is_located() && ds.profiles[u].country == c;
        });
    CountryTopOccupations row;
    row.country = c;
    std::vector<int> codes;
    for (const auto& r : ranked) {
      row.occupations.push_back(ds.profiles[r.node].occupation);
      codes.push_back(static_cast<int>(ds.profiles[r.node].occupation));
    }
    if (c == us) us_codes = codes;
    row.jaccard_vs_us = algo::jaccard_index(codes, us_codes);
    out.push_back(std::move(row));
  }
  // The US row is first in paper_top10(), so us_codes is populated before
  // any other row computes its Jaccard index.
  return out;
}

}  // namespace gplus::core
