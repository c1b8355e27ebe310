// §2.2 methodology reproduction: the BFS crawl itself.
//
// Reproduces the paper's collection pipeline on the simulated service:
//  * bidirectional BFS from the most popular user (the paper seeded at
//    Mark Zuckerberg), charged to 11 simulated rate-limited machines;
//  * the lost-edge estimate from the 10,000-entry public-circle cap (the
//    paper found 915 users above the cap and a 1.6% loss);
//  * the BFS degree-bias caveat, quantified at several coverage levels —
//    something the authors could not do without the ground truth.
#include "bench_common.h"

#include "algo/scc.h"
#include "core/analysis.h"
#include "core/reference.h"
#include "core/table.h"
#include "crawler/bias.h"
#include "crawler/crawler.h"
#include "service/service.h"

int main() {
  using namespace gplus;
  bench::banner("Methodology (§2.2)", "BFS crawl, circle cap, sampling bias");

  const auto& ds = bench::dataset();

  // Scale the cap so it bites the same way 10,000 did on the 35M-node
  // crawl: only the very top accounts exceed it.
  service::ServiceConfig sconfig;
  sconfig.circle_list_cap = bench::env_or("GPLUS_CIRCLE_CAP", 2'000);
  service::SocialService svc(&ds.graph(), ds.profiles, sconfig);

  crawler::CrawlConfig config;
  config.seed_node = core::top_users(ds, 1)[0].node;
  config.machines = 11;

  std::cout << "--- Full bidirectional crawl (11 simulated machines) ---\n";
  const auto full = crawler::run_bfs_crawl(svc, config);
  std::cout << "profiles crawled: "
            << core::fmt_count(full.stats.profiles_crawled)
            << ", boundary nodes: "
            << core::fmt_count(full.stats.boundary_nodes) << "\n";
  std::cout << "edges collected: "
            << core::fmt_count(full.stats.edges_collected)
            << " (deduped graph: " << core::fmt_count(full.graph.edge_count())
            << ")\n";
  std::cout << "requests: " << core::fmt_count(full.stats.requests)
            << ", simulated crawl time: "
            << core::fmt_double(full.stats.simulated_hours, 1)
            << " h (paper: Nov 11 - Dec 27, 2011)\n";
  std::cout << "users with a truncated list: "
            << core::fmt_count(full.stats.capped_users) << "\n";
  const auto& paper = core::paper_constants();
  const auto sccs = algo::strongly_connected_components(full.graph);
  std::cout << "giant SCC of the crawled snapshot: "
            << core::fmt_percent(sccs.giant_fraction(), 1)
            << " of crawled nodes (paper: "
            << core::fmt_percent(paper.giant_scc_fraction(), 0) << ")\n\n";

  std::cout << "--- Lost-edge estimate (paper: "
            << core::fmt_count(paper.users_over_circle_cap)
            << " users over cap, "
            << core::fmt_percent(paper.lost_edge_fraction, 1) << ") ---\n";
  core::TextTable lost({"Crawl coverage", "Users over cap", "Displayed",
                        "Collected", "Lost fraction"});
  for (double coverage : {0.25, 0.5, 1.0}) {
    service::SocialService fresh(&ds.graph(), ds.profiles, sconfig);
    crawler::CrawlConfig partial = config;
    partial.max_profiles =
        coverage >= 1.0
            ? 0
            : static_cast<std::size_t>(
                  coverage * static_cast<double>(ds.user_count()));
    const auto crawl = crawler::run_bfs_crawl(fresh, partial);
    const auto est = crawler::estimate_lost_edges(fresh, crawl);
    lost.add_row({core::fmt_percent(coverage, 0),
                  core::fmt_count(est.users_over_cap),
                  core::fmt_count(est.displayed_total),
                  core::fmt_count(est.collected_total),
                  core::fmt_percent(est.lost_fraction, 2)});
  }
  std::cout << lost.str();
  std::cout << "(a complete bidirectional crawl recovers capped edges from "
               "the\n"
               " source side — exactly the paper's recovery argument; the\n"
               " residual loss comes from never-crawled followers)\n\n";

  std::cout << "--- BFS sampling bias vs coverage (§2.2 caveat, [18,35]) ---\n";
  core::TextTable bias({"Coverage", "Sample mean in-degree", "True mean",
                        "Bias ratio", "Edge recall"});
  for (double coverage : {0.05, 0.15, 0.30, 0.56, 1.0}) {
    service::SocialService fresh(&ds.graph(), ds.profiles, sconfig);
    crawler::CrawlConfig partial = config;
    partial.max_profiles =
        coverage >= 1.0
            ? 0
            : static_cast<std::size_t>(
                  coverage * static_cast<double>(ds.user_count()));
    const auto crawl = crawler::run_bfs_crawl(fresh, partial);
    const auto report = crawler::measure_bias(ds.graph(), crawl);
    bias.add_row({core::fmt_percent(report.coverage, 0),
                  core::fmt_double(report.sample_mean_in_degree, 1),
                  core::fmt_double(report.truth_mean_in_degree, 1),
                  core::fmt_double(report.degree_bias_ratio, 2),
                  core::fmt_percent(report.edge_recall, 1)});
  }
  std::cout << bias.str();
  std::cout << "(the paper crawled 56% of the network: at that coverage the\n"
               " BFS over-samples popular users, inflating degree "
               "estimates)\n\n";

  std::cout << "--- Crawl fleet: makespan vs machine count (paper: 11 machines,"
               " Nov 11 - Dec 27 = 46 days) ---\n";
  core::TextTable fleet_table({"Machines", "Makespan (days)", "Utilization",
                               "Requests"});
  for (std::size_t machines : {1u, 4u, 11u, 22u}) {
    service::SocialService fresh(&ds.graph(), ds.profiles, sconfig);
    crawler::CrawlConfig fleet_config = config;
    fleet_config.machines = machines;
    const auto fleet = crawler::run_bfs_crawl(fresh, fleet_config);
    fleet_table.add_row({std::to_string(machines),
                         core::fmt_double(fleet.makespan_days, 1),
                         core::fmt_percent(fleet.mean_utilization, 0),
                         core::fmt_count(fleet.stats.requests)});
  }
  std::cout << fleet_table.str();
  std::cout << "(rate-limited machines with a shared frontier: at 2 req/s per\n"
               " machine the 46-day figure becomes a model output — scale the\n"
               " node count up and the 11-machine makespan walks toward it)\n";
  return 0;
}
