// Quickstart: generate a Google+-like network, run the structural pipeline,
// and print the headline numbers of the paper's Table 4 row.
//
//   ./quickstart [node_count] [seed]
#include <cstdlib>
#include <iostream>

#include "algo/bfs.h"
#include "algo/clustering.h"
#include "algo/degrees.h"
#include "algo/reciprocity.h"
#include "algo/scc.h"
#include "geo/world.h"
#include "stats/descriptive.h"
#include "synth/graph_gen.h"
#include "synth/population.h"

int main(int argc, char** argv) {
  using namespace gplus;

  const std::size_t nodes =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100'000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  std::cout << "Generating a Google+-like network with " << nodes
            << " users (seed " << seed << ")...\n";
  const synth::PopulationModel population;
  const geo::World world;
  const auto net = synth::generate_network(
      synth::google_plus_preset(nodes, seed), population, world);
  const graph::DiGraph& g = net.graph;

  std::cout << "nodes: " << g.node_count() << "\n";
  std::cout << "edges: " << g.edge_count() << "\n";
  std::cout << "mean degree: " << g.mean_degree() << "  (paper: 16.4)\n";

  const auto in_dist = algo::in_degree_distribution(g, 3);
  const auto out_dist = algo::out_degree_distribution(g, 3);
  std::cout << "in-degree power-law alpha: " << in_dist.power_law.alpha
            << " (R2 " << in_dist.power_law.r_squared << ", paper: 1.3)\n";
  std::cout << "out-degree power-law alpha: " << out_dist.power_law.alpha
            << " (R2 " << out_dist.power_law.r_squared << ", paper: 1.2)\n";
  std::cout << "max in-degree: " << in_dist.max
            << "  max out-degree: " << out_dist.max << "\n";

  std::cout << "global reciprocity: " << algo::global_reciprocity(g)
            << "  (paper: 0.32)\n";
  const auto rr = algo::relation_reciprocities(g);
  std::size_t high = 0;
  for (double r : rr) high += r > 0.6 ? 1 : 0;
  std::cout << "users with RR > 0.6: "
            << static_cast<double>(high) / static_cast<double>(rr.size())
            << "  (paper: >0.60)\n";

  stats::Rng rng(seed);
  const auto cc = algo::sampled_clustering_coefficients(g, 20'000, rng);
  std::size_t cc_high = 0;
  for (double c : cc) cc_high += c > 0.2 ? 1 : 0;
  std::cout << "mean clustering: " << stats::mean(cc) << ", CC > 0.2: "
            << static_cast<double>(cc_high) / static_cast<double>(cc.size())
            << "  (paper: 0.40 of users)\n";

  const auto sccs = algo::strongly_connected_components(g);
  std::cout << "SCCs: " << sccs.component_count()
            << ", giant: " << sccs.giant_fraction()
            << " of nodes (paper: 0.72)\n";

  algo::PathLengthOptions opt;
  opt.initial_sources = 50;
  opt.max_sources = 200;
  const auto directed = algo::estimate_path_lengths(g, opt, rng);
  opt.undirected = true;
  const auto undirected = algo::estimate_path_lengths(g, opt, rng);
  std::cout << "directed paths: mean " << directed.mean << ", mode "
            << directed.mode
            << ", diameter >= " << directed.diameter_lower_bound
            << "  (paper: 5.9 / 6 / 19)\n";
  std::cout << "undirected paths: mean " << undirected.mean << ", mode "
            << undirected.mode << ", diameter >= "
            << undirected.diameter_lower_bound << "  (paper: 4.7 / 5 / 13)\n";
  return 0;
}
