// Figure 5: Estimated path-length (hop) distribution, directed and
// undirected.
//
// The paper BFSes from a growing random source sample (2,000 -> 10,000,
// stopping when the distribution stabilizes) and reports mode 6 / mean 5.9
// for the directed graph and mode 5 / mean 4.7 undirected, with diameters
// 19 and 13. At simulation scale the absolute hop counts compress (a 150k
// graph is ~230x smaller than the crawl) but the orderings — directed
// longer than undirected, diameter several times the mean — hold.
#include "bench_common.h"

#include "algo/anf.h"
#include "algo/bfs.h"
#include "core/hop_analysis.h"
#include "core/reference.h"
#include "core/table.h"

int main() {
  using namespace gplus;
  bench::banner("Figure 5", "estimated path length distribution");

  const auto& g = bench::dataset().graph();
  stats::Rng rng(bench::seed());

  algo::PathLengthOptions opt;
  opt.initial_sources = 100;
  opt.max_sources = bench::env_or("GPLUS_PATH_SOURCES", 500);

  const auto directed = algo::estimate_path_lengths(g, opt, rng);
  opt.undirected = true;
  const auto undirected = algo::estimate_path_lengths(g, opt, rng);

  core::TextTable table({"Hops", "Directed P[h]", "Undirected P[h]"});
  const std::size_t rows =
      std::max(directed.pmf.size(), undirected.pmf.size());
  for (std::size_t h = 1; h < rows; ++h) {
    const double d = h < directed.pmf.size() ? directed.pmf[h] : 0.0;
    const double u = h < undirected.pmf.size() ? undirected.pmf[h] : 0.0;
    table.add_row({std::to_string(h), core::fmt_double(d, 4),
                   core::fmt_double(u, 4)});
  }
  std::cout << table.str() << "\n";

  const auto& paper = core::paper_constants();
  std::cout << "directed:   mean " << core::fmt_double(directed.mean, 2)
            << ", mode " << directed.mode << ", diameter >= "
            << directed.diameter_lower_bound << ", sources "
            << directed.sources_used << "  (paper: "
            << core::fmt_double(paper.directed_mean_path, 1) << " / "
            << paper.directed_mode_path << " / " << paper.directed_diameter
            << ")\n";
  std::cout << "undirected: mean " << core::fmt_double(undirected.mean, 2)
            << ", mode " << undirected.mode << ", diameter >= "
            << undirected.diameter_lower_bound << ", sources "
            << undirected.sources_used << "  (paper: "
            << core::fmt_double(paper.undirected_mean_path, 1) << " / "
            << paper.undirected_mode_path << " / " << paper.undirected_diameter
            << ")\n";
  std::cout << "reachable pair share (directed): "
            << core::fmt_percent(directed.reachable_fraction, 1) << "\n";

  std::cout << "\nordering checks: directed mean > undirected mean: "
            << (directed.mean > undirected.mean ? "ok" : "MISS")
            << "; directed diameter >= undirected: "
            << (directed.diameter_lower_bound >= undirected.diameter_lower_bound
                    ? "ok"
                    : "MISS")
            << "\n";

  // Cross-check with HyperANF — the all-pairs estimator behind the
  // paper's cited "Four degrees of separation" [3].
  std::cout << "\n--- HyperANF cross-check (the [3] methodology) ---\n";
  algo::AnfOptions anf_opt;
  anf_opt.seed = bench::seed();
  const auto anf = algo::approximate_neighborhood_function(g, anf_opt);
  std::cout << "all-pairs directed mean distance: "
            << core::fmt_double(anf.mean_distance, 2) << " (sampled BFS: "
            << core::fmt_double(directed.mean, 2) << ")\n";
  std::cout << "effective diameter (90th pct): "
            << core::fmt_double(anf.effective_diameter, 2) << "; converged in "
            << anf.iterations << " passes\n";

  // Geography x hops: the Fig 5 / Fig 10 join.
  std::cout << "\n--- Hop distance by geography (extension) ---\n";
  stats::Rng hop_rng(bench::seed());
  const auto split =
      core::measure_hop_geography(bench::dataset(), 40, hop_rng);
  std::cout << "same-country pairs:  mean "
            << core::fmt_double(split.domestic_mean_hops, 2) << " hops over "
            << core::fmt_count(split.domestic_pairs) << " pairs\n";
  std::cout << "cross-country pairs: mean "
            << core::fmt_double(split.international_mean_hops, 2)
            << " hops over " << core::fmt_count(split.international_pairs)
            << " pairs\n";
  std::cout << "(the Fig 10 self-loop structure shows up as a hop discount\n"
               " for domestic pairs — the topological face of §4's geography)\n";
  return 0;
}
