// Figure 9: (a) path-mile CDF for friend pairs, reciprocal pairs and random
// unlinked pairs; (b) average path mile per top-10 country.
//
// Paper: 58% of friend pairs within 1,000 miles, 15% within 10 miles;
// reciprocal pairs live closer than one-way pairs; random pairs are far
// apart; and country size does NOT predict the average path mile. An
// ablation sweeps the geo-mixing knob to show the friends-vs-random gap
// collapse when geography is removed.
#include "bench_common.h"

#include <algorithm>

#include "core/geo_analysis.h"
#include "core/table.h"
#include "geo/world.h"
#include "stats/descriptive.h"
#include "stats/distribution.h"
#include "synth/graph_gen.h"
#include "synth/profile_gen.h"

namespace {

using namespace gplus;

double cdf_at(const std::vector<double>& sorted_samples, double x) {
  const auto it =
      std::upper_bound(sorted_samples.begin(), sorted_samples.end(), x);
  return sorted_samples.empty()
             ? 0.0
             : static_cast<double>(it - sorted_samples.begin()) /
                   static_cast<double>(sorted_samples.size());
}

}  // namespace

int main() {
  using namespace gplus;
  bench::banner("Figure 9",
                "physical distance between user pairs (path miles)");

  const auto& ds = bench::dataset();
  stats::Rng rng(bench::seed());
  auto samples = core::sample_path_miles(ds, 50'000, rng);
  std::sort(samples.friends.begin(), samples.friends.end());
  std::sort(samples.reciprocal.begin(), samples.reciprocal.end());
  std::sort(samples.random.begin(), samples.random.end());

  std::cout << "--- (a) CDF of pair distance (thousand miles) ---\n";
  core::TextTable cdf({"Distance <=", "Random", "Friends", "Reciprocal"});
  for (double miles : {10.0, 100.0, 500.0, 1000.0, 2000.0, 4000.0, 6000.0,
                       8000.0, 12000.0}) {
    cdf.add_row({core::fmt_double(miles / 1000.0, 2) + "k mi",
                 core::fmt_double(cdf_at(samples.random, miles), 3),
                 core::fmt_double(cdf_at(samples.friends, miles), 3),
                 core::fmt_double(cdf_at(samples.reciprocal, miles), 3)});
  }
  std::cout << cdf.str() << "\n";
  std::cout << "friends within 1,000 miles: "
            << core::fmt_percent(cdf_at(samples.friends, 1000.0))
            << " (paper: 58%); within 10 miles: "
            << core::fmt_percent(cdf_at(samples.friends, 10.0))
            << " (paper: 15%)\n";
  {
    stats::Rng ci_rng(3);
    const auto friends_ci =
        stats::bootstrap_mean_ci(samples.friends, 200, ci_rng);
    const auto random_ci =
        stats::bootstrap_mean_ci(samples.random, 200, ci_rng);
    std::cout << "mean distance, 95% bootstrap CI: friends "
              << core::fmt_double(friends_ci.mean, 0) << " ["
              << core::fmt_double(friends_ci.lower, 0) << ", "
              << core::fmt_double(friends_ci.upper, 0) << "] mi vs random "
              << core::fmt_double(random_ci.mean, 0) << " ["
              << core::fmt_double(random_ci.lower, 0) << ", "
              << core::fmt_double(random_ci.upper, 0)
              << "] mi (non-overlapping: the gap is not sampling noise)\n";
  }
  std::cout << "ordering (reciprocal closest, random farthest): "
            << ((stats::mean(samples.reciprocal) <=
                     stats::mean(samples.friends) &&
                 stats::mean(samples.friends) < stats::mean(samples.random))
                    ? "ok"
                    : "MISS")
            << "\n\n";

  std::cout << "--- (b) Average path mile per country (friend edges) ---\n";
  core::TextTable per_country({"Country", "Mean miles", "Stddev", "Edges"});
  for (const auto& row : core::path_miles_by_country(ds)) {
    per_country.add_row({std::string(geo::country(row.country).name),
                         core::fmt_double(row.mean_miles, 0),
                         core::fmt_double(row.stddev_miles, 0),
                         core::fmt_count(row.edges)});
  }
  std::cout << per_country.str();
  std::cout << "(paper: no pattern relating country size to average "
               "path mile;\n"
               " small countries export many edges, e.g. GB/CA into the "
               "US)\n\n";

  std::cout << "--- Ablation: geo-mixing knob vs friends/random gap ---\n";
  const synth::PopulationModel population;
  const geo::World world;
  const std::size_t n = std::min<std::size_t>(bench::scale(), 60'000);
  core::TextTable ablation({"geo_mixing", "friends mean mi", "random mean mi",
                            "gap ratio"});
  for (double mix : {1.0, 0.5, 0.0}) {
    core::DatasetConfig config;
    config.graph = synth::google_plus_preset(n, bench::seed());
    config.graph.geo_mixing = mix;
    const auto ablation_ds = core::make_dataset(config);
    stats::Rng arng(7);
    const auto s = core::sample_path_miles(ablation_ds, 20'000, arng);
    const double f = stats::mean(s.friends);
    const double r = stats::mean(s.random);
    ablation.add_row({core::fmt_double(mix, 1), core::fmt_double(f, 0),
                      core::fmt_double(r, 0),
                      core::fmt_double(f > 0 ? r / f : 0.0, 2)});
  }
  std::cout << ablation.str();
  std::cout << "(geo_mixing 0 keeps every edge domestic: the friends curve\n"
               " collapses toward city scale while random pairs stay global)\n";
  return 0;
}
