// Figure 4: (a) relation-reciprocity CDF, (b) clustering-coefficient CDF,
// (c) strongly-connected-component size CCDF.
//
// Paper findings: >60% of users with RR above 0.6 and 32% global edge
// reciprocity (vs 22.1% on Twitter); 40% of users with clustering above
// 0.2 (higher than Twitter and Facebook); 9.77M SCCs with a single giant
// component of 25.24M nodes. An ablation sweeps the friend-reciprocation
// knob to show the RR CDF response.
#include "bench_common.h"

#include "algo/bowtie.h"
#include "algo/clustering.h"
#include "algo/reciprocity.h"
#include "algo/scc.h"
#include "core/reference.h"
#include "core/table.h"
#include "geo/world.h"
#include "synth/graph_gen.h"

namespace {

using namespace gplus;

double cdf_at(const std::vector<stats::CurvePoint>& cdf, double x) {
  return stats::evaluate_step(cdf, x);
}

void print_cdf_row(const std::string& label,
                   const std::vector<stats::CurvePoint>& cdf) {
  std::cout << label;
  for (double x = 0.0; x <= 1.0001; x += 0.1) {
    std::cout << "  " << core::fmt_double(cdf_at(cdf, x), 3);
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  using namespace gplus;
  bench::banner("Figure 4", "reciprocity, clustering and SCC distributions");

  const auto& g = bench::dataset().graph();
  const auto& paper = core::paper_constants();

  std::cout << "--- (a) Relation Reciprocity CDF ---\n";
  std::cout << "x:           ";
  for (double x = 0.0; x <= 1.0001; x += 0.1) {
    std::cout << "  " << core::fmt_double(x, 1) << "  ";
  }
  std::cout << "\n";
  const auto rr_cdf = algo::reciprocity_cdf(g);
  print_cdf_row("G+ (synth):", rr_cdf);
  const double above_06 = 1.0 - cdf_at(rr_cdf, 0.6);
  std::cout << "users with RR > 0.6: " << core::fmt_percent(above_06)
            << "  (paper: more than 60%)\n";
  std::cout << "global reciprocity: "
            << core::fmt_percent(algo::global_reciprocity(g))
            << "  (paper: " << core::fmt_percent(paper.gplus_reciprocity, 0)
            << "; Twitter " << core::fmt_percent(paper.twitter_reciprocity, 1)
            << "; Flickr " << core::fmt_percent(paper.flickr_reciprocity, 0)
            << "; Yahoo!360 "
            << core::fmt_percent(paper.yahoo360_reciprocity, 0)
            << ")\n\n";

  std::cout << "--- (b) Clustering Coefficient CDF (sampled nodes) ---\n";
  stats::Rng rng(bench::seed());
  const std::size_t cc_sample = std::min<std::size_t>(100'000, g.node_count());
  const auto cc_cdf = algo::clustering_cdf(g, cc_sample, rng);
  print_cdf_row("G+ (synth):", cc_cdf);
  std::cout << "users with CC > 0.2: "
            << core::fmt_percent(1.0 - cdf_at(cc_cdf, 0.2))
            << "  (paper: 40%)\n\n";

  std::cout << "--- (c) SCC size CCDF ---\n";
  const auto sccs = algo::strongly_connected_components(g);
  const double paper_nodes = core::google_plus_reference().nodes;
  const auto scc_ccdf = algo::scc_size_ccdf(sccs);
  std::cout << "components: " << core::fmt_count(sccs.component_count())
            << "; giant: " << core::fmt_count(sccs.giant_size()) << " nodes ("
            << core::fmt_percent(sccs.giant_fraction(), 1)
            << " of graph; paper: "
            << core::fmt_double(paper.giant_scc_nodes / 1e6, 2) << "M of "
            << core::fmt_double(paper_nodes / 1e6, 1) << "M = "
            << core::fmt_percent(paper.giant_scc_nodes / paper_nodes, 0)
            << ")\n";
  std::cout << "size -> CCDF (log-spaced):\n";
  double next_x = 1.0;
  for (const auto& p : scc_ccdf) {
    if (p.x + 1e-12 < next_x) continue;
    std::cout << "  " << core::fmt_double(p.x, 0) << " -> "
              << core::fmt_double(p.y, 8) << "\n";
    next_x = std::max(p.x * 4.0, 1.0);
  }
  // The giant component always deserves a row.
  if (!scc_ccdf.empty()) {
    std::cout << "  " << core::fmt_double(scc_ccdf.back().x, 0) << " -> "
              << core::fmt_double(scc_ccdf.back().y, 8) << " (giant)\n";
  }

  // Bow-tie view around the giant SCC (extension of §3.3.4).
  const auto bowtie = algo::bow_tie_decomposition(g);
  std::cout << "\nbow-tie decomposition: core "
            << core::fmt_percent(bowtie.core_fraction(g.node_count()), 1)
            << ", IN " << core::fmt_count(bowtie.in) << ", OUT "
            << core::fmt_count(bowtie.out) << ", other "
            << core::fmt_count(bowtie.other)
            << "\n(OUT is dominated by the dormant sign-up-and-leave accounts"
               " the core follows into the void)\n";

  std::cout << "\n--- Ablation: RR response to the friend-reciprocation knob ---\n";
  const synth::PopulationModel population;
  const geo::World world;
  const std::size_t n = std::min<std::size_t>(bench::scale(), 60'000);
  core::TextTable ablation({"friend_reciprocation", "global reciprocity",
                            "share RR > 0.6"});
  for (double p_back : {0.2, 0.4, 0.64, 0.8}) {
    synth::GraphGenConfig config = synth::google_plus_preset(n, bench::seed());
    config.friend_reciprocation = p_back;
    const auto net = synth::generate_network(config, population, world);
    const auto rr = algo::relation_reciprocities(net.graph);
    std::size_t high = 0;
    for (double r : rr) high += r > 0.6;
    ablation.add_row({core::fmt_double(p_back, 2),
                      core::fmt_percent(algo::global_reciprocity(net.graph)),
                      core::fmt_percent(static_cast<double>(high) / rr.size())});
  }
  std::cout << ablation.str();
  return 0;
}
