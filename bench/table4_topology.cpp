// Table 4: Comparison of topological characteristics of Google+ and other
// online social networks.
//
// Two parts:
//  1. the paper's printed rows (cited constants for Facebook / Twitter /
//     Orkut and the authors' Google+ measurements);
//  2. our measured rows — the same structural pipeline run on the standard
//     Google+-like dataset and on the Twitter-like / Facebook-like
//     generator presets, so the *ordering* claims (G+ more reciprocal than
//     Twitter, longer paths than both, far sparser than Facebook) can be
//     checked end-to-end.
#include "bench_common.h"

#include "core/analysis.h"
#include "core/reference.h"
#include "core/table.h"
#include "geo/world.h"
#include "synth/graph_gen.h"

namespace {

using namespace gplus;

core::StructuralSummary measure(const graph::DiGraph& g, std::uint64_t seed) {
  stats::Rng rng(seed);
  const std::size_t sources = std::min<std::size_t>(300, g.node_count());
  return core::structural_summary(g, sources, rng);
}

void add_measured_row(core::TextTable& table, const std::string& name,
                      const core::StructuralSummary& s) {
  table.add_row({name, core::fmt_count(s.nodes), core::fmt_count(s.edges),
                 core::fmt_double(s.path_length, 1),
                 core::fmt_percent(s.reciprocity, 0),
                 ">=" + std::to_string(s.diameter_lower_bound),
                 core::fmt_double(s.mean_degree, 1)});
}

}  // namespace

int main() {
  using namespace gplus;
  bench::banner("Table 4", "topological comparison across social networks");

  std::cout << "--- Paper rows (cited values) ---\n";
  core::TextTable paper({"Network", "Nodes", "Edges", "% Crawled",
                         "Path length", "Reciprocity", "Diameter",
                         "Mean degree"});
  for (const auto& row : core::reference_networks()) {
    paper.add_row({std::string(row.name),
                   core::fmt_double(row.nodes / 1e6, 1) + "M",
                   core::fmt_double(row.edges / 1e6, 0) + "M",
                   core::fmt_percent(row.crawled_fraction, 0),
                   core::fmt_double(row.path_length, 1),
                   core::fmt_percent(row.reciprocity, 1),
                   std::to_string(row.diameter),
                   row.mean_in_degree ? core::fmt_double(*row.mean_in_degree, 1)
                                      : "-"});
  }
  std::cout << paper.str() << "\n";

  std::cout << "--- Measured rows (our generator presets, equal scale) ---\n";
  const std::size_t n = bench::scale();
  const synth::PopulationModel population;
  const geo::World world;

  core::TextTable measured({"Network", "Nodes", "Edges", "Path length",
                            "Reciprocity", "Diameter(lb)", "Mean degree"});

  const auto& gplus_ds = bench::dataset();
  const auto gplus_row = measure(gplus_ds.graph(), 1);
  add_measured_row(measured, "Google+ (synthetic)", gplus_row);

  const auto twitter = synth::generate_network(
      synth::twitter_like_preset(n, bench::seed()), population, world);
  const auto twitter_row = measure(twitter.graph, 2);
  add_measured_row(measured, "Twitter-like", twitter_row);

  const auto facebook = synth::generate_network(
      synth::facebook_like_preset(n, bench::seed()), population, world);
  const auto facebook_row = measure(facebook.graph, 3);
  add_measured_row(measured, "Facebook-like", facebook_row);

  std::cout << measured.str() << "\n";

  std::cout << "--- Ordering checks (paper claims) ---\n";
  const auto& cited = core::paper_constants();
  auto check = [](const std::string& claim, bool ok) {
    std::cout << (ok ? "[ok]   " : "[MISS] ") << claim << "\n";
  };
  check("G+ more reciprocal than Twitter (" +
            core::fmt_percent(cited.gplus_reciprocity, 0) + " vs " +
            core::fmt_percent(cited.twitter_reciprocity, 0) + ")",
        gplus_row.reciprocity > twitter_row.reciprocity);
  check("Facebook fully reciprocal", facebook_row.reciprocity > 0.95);
  check("G+ path length >= Twitter-like path length",
        gplus_row.path_length >= twitter_row.path_length - 0.2);
  check("G+ sparser than Facebook-like (mean degree)",
        gplus_row.mean_degree < facebook_row.mean_degree + 5.0);
  check("G+ in/out power-law alphas near " +
            core::fmt_double(cited.in_degree_alpha, 1) + "/" +
            core::fmt_double(cited.out_degree_alpha, 1),
        gplus_row.in_alpha > 1.0 && gplus_row.in_alpha < 1.7 &&
            gplus_row.out_alpha > 0.95 && gplus_row.out_alpha < 1.6);
  std::cout << "\nG+ measured alphas: in "
            << core::fmt_double(gplus_row.in_alpha, 2) << ", out "
            << core::fmt_double(gplus_row.out_alpha, 2)
            << " (paper: " << core::fmt_double(cited.in_degree_alpha, 1)
            << " / " << core::fmt_double(cited.out_degree_alpha, 1)
            << "); giant SCC "
            << core::fmt_percent(gplus_row.giant_scc_fraction, 0)
            << " of nodes (paper: "
            << core::fmt_percent(cited.giant_scc_fraction(), 0) << ")\n";
  return 0;
}
