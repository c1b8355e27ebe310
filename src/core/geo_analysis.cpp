#include "core/geo_analysis.h"

#include <algorithm>
#include <cmath>

#include "geo/coords.h"
#include "stats/descriptive.h"
#include "stats/expect.h"
#include "stats/sampling.h"

namespace gplus::core {

using graph::NodeId;

std::vector<CountryShare> located_country_shares(const Dataset& ds) {
  std::vector<std::uint64_t> counts(geo::country_count(), 0);
  std::uint64_t located = 0;
  for (NodeId u = 0; u < ds.user_count(); ++u) {
    if (!ds.located(u)) continue;
    ++located;
    ++counts[ds.profiles[u].country];
  }
  std::vector<CountryShare> out;
  for (geo::CountryId c = 0; c < geo::country_count(); ++c) {
    if (geo::country(c).aggregate) continue;  // "Rest of world" is not a rank
    CountryShare share;
    share.country = c;
    share.users = counts[c];
    share.fraction = located == 0 ? 0.0
                                  : static_cast<double>(counts[c]) /
                                        static_cast<double>(located);
    out.push_back(share);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CountryShare& a, const CountryShare& b) {
                     return a.users > b.users;
                   });
  return out;
}

std::vector<PenetrationPoint> penetration_by_country(const Dataset& ds) {
  const auto shares = located_country_shares(ds);
  std::vector<PenetrationPoint> out;
  out.reserve(shares.size());
  double max_gpr = 0.0;
  for (const auto& s : shares) {
    const geo::Country& c = geo::country(s.country);
    PenetrationPoint p;
    p.country = s.country;
    p.gdp_per_capita = c.gdp_per_capita_ppp;
    p.dataset_users = s.users;
    p.ipr = c.internet_penetration;
    const double netpop = c.internet_population();
    p.gpr = netpop > 0.0 ? static_cast<double>(s.users) / netpop : 0.0;
    max_gpr = std::max(max_gpr, p.gpr);
    out.push_back(p);
  }
  for (auto& p : out) {
    p.gpr_relative = max_gpr > 0.0 ? p.gpr / max_gpr : 0.0;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const PenetrationPoint& a, const PenetrationPoint& b) {
                     return a.gpr > b.gpr;
                   });
  return out;
}

std::vector<stats::CurvePoint> country_fields_ccdf(const Dataset& ds,
                                                   geo::CountryId country) {
  const std::uint32_t exclude =
      synth::AttributeMask::bit(synth::Attribute::kWorkContact) |
      synth::AttributeMask::bit(synth::Attribute::kHomeContact);
  std::vector<std::uint64_t> counts;
  for (NodeId u = 0; u < ds.user_count(); ++u) {
    const synth::Profile& p = ds.profiles[u];
    if (!p.is_located() || p.country != country) continue;
    counts.push_back(static_cast<std::uint64_t>(p.shared.count(exclude)));
  }
  return stats::integer_ccdf(counts);
}

PathMileSamples sample_path_miles(const Dataset& ds, std::size_t max_pairs,
                                  stats::Rng& rng) {
  GPLUS_EXPECT(max_pairs > 0, "need a positive sample budget");
  PathMileSamples out;
  const graph::DiGraph& g = ds.graph();

  // Located universe for the random-pair baseline.
  std::vector<NodeId> located;
  for (NodeId u = 0; u < ds.user_count(); ++u) {
    if (ds.located(u)) located.push_back(u);
  }
  if (located.size() < 2) return out;

  auto miles = [&](NodeId a, NodeId b) {
    return geo::haversine_miles(ds.profiles[a].home, ds.profiles[b].home);
  };

  // Friends / reciprocal: reservoir over the located-edge stream (each
  // reciprocal pair counted once, from its lower endpoint).
  stats::ReservoirSampler<double> friend_res(max_pairs, rng);
  stats::ReservoirSampler<double> recip_res(max_pairs, rng);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (!ds.located(u)) continue;
    for (NodeId v : g.out_neighbors(u)) {
      if (!ds.located(v) || v == u) continue;
      const double d = miles(u, v);
      friend_res.add(d);
      if (u < v && g.has_edge(v, u)) recip_res.add(d);
    }
  }
  out.friends = friend_res.sample();
  out.reciprocal = recip_res.sample();

  // Random unlinked located pairs.
  out.random.reserve(max_pairs);
  std::size_t attempts = 0;
  const std::size_t max_attempts = max_pairs * 20;
  while (out.random.size() < max_pairs && attempts < max_attempts) {
    ++attempts;
    const NodeId a =
        located[static_cast<std::size_t>(rng.next_below(located.size()))];
    const NodeId b =
        located[static_cast<std::size_t>(rng.next_below(located.size()))];
    if (a == b || g.has_edge(a, b) || g.has_edge(b, a)) continue;
    out.random.push_back(miles(a, b));
  }
  return out;
}

std::vector<CountryPathMiles> path_miles_by_country(const Dataset& ds) {
  const auto top10 = geo::paper_top10();
  std::vector<stats::RunningStats> acc(geo::country_count());
  const graph::DiGraph& g = ds.graph();
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (!ds.located(u)) continue;
    const geo::CountryId c = ds.profiles[u].country;
    for (NodeId v : g.out_neighbors(u)) {
      if (!ds.located(v) || v == u) continue;
      acc[c].add(
          geo::haversine_miles(ds.profiles[u].home, ds.profiles[v].home));
    }
  }
  std::vector<CountryPathMiles> out;
  out.reserve(top10.size());
  for (geo::CountryId c : top10) {
    CountryPathMiles row;
    row.country = c;
    row.mean_miles = acc[c].mean();
    row.stddev_miles = acc[c].stddev();
    row.edges = acc[c].count();
    out.push_back(row);
  }
  return out;
}

CountryLinkGraph country_link_graph(const Dataset& ds) {
  const auto top10 = geo::paper_top10();
  CountryLinkGraph out;
  out.countries.assign(top10.begin(), top10.end());

  // slot[c]: index into the top-10, or -1.
  std::vector<int> slot(geo::country_count(), -1);
  for (std::size_t i = 0; i < top10.size(); ++i) {
    slot[top10[i]] = static_cast<int>(i);
  }

  std::vector<std::vector<std::uint64_t>> counts(
      top10.size(), std::vector<std::uint64_t>(top10.size(), 0));
  std::vector<std::uint64_t> row_total(top10.size(), 0);

  const graph::DiGraph& g = ds.graph();
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (!ds.located(u)) continue;
    const int si = slot[ds.profiles[u].country];
    if (si < 0) continue;
    for (NodeId v : g.out_neighbors(u)) {
      if (!ds.located(v) || v == u) continue;
      ++row_total[static_cast<std::size_t>(si)];
      const int sj = slot[ds.profiles[v].country];
      if (sj >= 0) {
        ++counts[static_cast<std::size_t>(si)][static_cast<std::size_t>(sj)];
      }
    }
  }

  out.weight.assign(top10.size(), std::vector<double>(top10.size(), 0.0));
  for (std::size_t i = 0; i < top10.size(); ++i) {
    if (row_total[i] == 0) continue;
    for (std::size_t j = 0; j < top10.size(); ++j) {
      out.weight[i][j] = static_cast<double>(counts[i][j]) /
                         static_cast<double>(row_total[i]);
    }
  }
  return out;
}

}  // namespace gplus::core
