// Figure 3: In- and out-degree CCDFs with power-law fits.
//
// The paper fits alpha = 1.3 (in) and 1.2 (out) with R² = 0.99 via linear
// regression in log-log space, and observes a sharp out-degree drop at
// 5,000 caused by Google's circle-count policy. An ablation regenerates
// the network without the cap to show the cliff is policy, not organic.
#include "bench_common.h"

#include "algo/degrees.h"
#include "core/reference.h"
#include "core/table.h"
#include "geo/world.h"
#include "stats/descriptive.h"
#include "stats/powerlaw_mle.h"
#include "synth/graph_gen.h"

namespace {

using namespace gplus;

void print_ccdf(const std::string& label,
                const std::vector<stats::CurvePoint>& ccdf) {
  // Log-spaced sample of the curve (as the paper's log-log plot).
  std::cout << label << " (degree -> CCDF):\n";
  double next_x = 1.0;
  for (const auto& p : ccdf) {
    if (p.x + 1e-12 < next_x) continue;
    std::cout << "  " << core::fmt_double(p.x, 0) << " -> "
              << core::fmt_double(p.y, 6) << "\n";
    next_x = std::max(p.x * 2.0, 1.0);
  }
}

}  // namespace

int main() {
  using namespace gplus;
  bench::banner("Figure 3", "degree distributions (CCDF, power-law fits)");

  const auto& g = bench::dataset().graph();
  const auto in_dist = algo::in_degree_distribution(g, 3);
  const auto out_dist = algo::out_degree_distribution(g, 3);

  print_ccdf("In-degree", in_dist.ccdf);
  print_ccdf("Out-degree", out_dist.ccdf);

  const auto& paper = core::paper_constants();
  const auto paper_fit = [&](double alpha) {
    return "  (paper: alpha " + core::fmt_double(alpha, 1) + ", R2 " +
           core::fmt_double(paper.degree_fit_r_squared, 2) + ")\n";
  };
  std::cout << "\npower-law fits (CCDF ~ C x^-alpha):\n";
  std::cout << "  in-degree:  alpha = "
            << core::fmt_double(in_dist.power_law.alpha, 2) << ", R2 = "
            << core::fmt_double(in_dist.power_law.r_squared, 3)
            << paper_fit(paper.in_degree_alpha);
  std::cout << "  out-degree: alpha = "
            << core::fmt_double(out_dist.power_law.alpha, 2) << ", R2 = "
            << core::fmt_double(out_dist.power_law.r_squared, 3)
            << paper_fit(paper.out_degree_alpha);
  std::cout << "  max in-degree " << in_dist.max << ", max out-degree "
            << out_dist.max << "\n";

  // Second opinion: the Clauset-Shalizi-Newman MLE (density exponent
  // converted to the paper's CCDF convention) with KS-optimal threshold.
  const auto in_mle = stats::fit_power_law_auto(algo::in_degrees(g));
  const auto out_mle = stats::fit_power_law_auto(algo::out_degrees(g));
  std::cout << "\nCSN maximum-likelihood fits (CCDF-exponent convention):\n";
  std::cout << "  in-degree:  alpha = "
            << core::fmt_double(in_mle.ccdf_alpha(), 2) << " (x_min "
            << in_mle.x_min << ", KS "
            << core::fmt_double(in_mle.ks_distance, 3) << ", tail n = "
            << in_mle.tail_samples << ")\n";
  std::cout << "  out-degree: alpha = "
            << core::fmt_double(out_mle.ccdf_alpha(), 2) << " (x_min "
            << out_mle.x_min << ", KS "
            << core::fmt_double(out_mle.ks_distance, 3) << ", tail n = "
            << out_mle.tail_samples << ")\n";

  // The 5,000 cliff: out-degree CCDF mass just below vs just above the cap.
  const auto mass_above = [](const std::vector<stats::CurvePoint>& ccdf,
                             double x) {
    for (const auto& p : ccdf) {
      if (p.x >= x) return p.y;
    }
    return 0.0;
  };
  // Audience concentration (§3.3.1: "a small fraction of the individuals
  // have disproportionately large number of neighbors").
  {
    std::vector<double> in_as_double;
    in_as_double.reserve(g.node_count());
    for (auto d : algo::in_degrees(g)) {
      in_as_double.push_back(static_cast<double>(d));
    }
    std::cout << "\naudience concentration: Gini(in-degree) = "
              << core::fmt_double(stats::gini_coefficient(in_as_double), 3)
              << " (0 = equal, 1 = one account owns every follower)\n";
  }

  std::cout << "\n--- Out-degree cap ablation "
               "(paper §3.3.1: cliff at 5,000) ---\n";
  std::cout << "with cap:    P[out >= 4500] = "
            << core::fmt_double(mass_above(out_dist.ccdf, 4500), 8)
            << ", P[out >= 5500] = "
            << core::fmt_double(mass_above(out_dist.ccdf, 5500), 8) << "\n";

  synth::GraphGenConfig uncapped =
      synth::google_plus_preset(bench::scale(), bench::seed());
  uncapped.enforce_out_cap = false;
  const synth::PopulationModel population;
  const geo::World world;
  const auto free_net = synth::generate_network(uncapped, population, world);
  const auto free_out = algo::out_degree_distribution(free_net.graph, 3);
  std::cout << "without cap: P[out >= 4500] = "
            << core::fmt_double(mass_above(free_out.ccdf, 4500), 8)
            << ", P[out >= 5500] = "
            << core::fmt_double(mass_above(free_out.ccdf, 5500), 8)
            << ", max out-degree " << free_out.max << "\n";
  std::cout << "(with the cap, only exempt celebrity accounts pass 5,000 — the"
               " paper's conjecture about special users)\n";
  return 0;
}
