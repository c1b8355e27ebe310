// Example: measurement-methodology study.
//
// Spins up the simulated Google+ service over a synthetic ground-truth
// network and runs the paper's §2.2 crawl pipeline against it, showing the
// things a real measurement team cannot see: how crawl coverage, the
// 10,000-entry circle cap, and hidden lists distort the collected graph.
//
//   ./crawl_study [node_count] [seed]
#include <cstdlib>
#include <iostream>

#include "algo/scc.h"
#include "core/analysis.h"
#include "core/dataset.h"
#include "core/table.h"
#include "crawler/bias.h"
#include "crawler/crawler.h"
#include "service/service.h"

int main(int argc, char** argv) {
  using namespace gplus;
  const std::size_t nodes =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 60'000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  std::cout << "Building ground truth (" << nodes << " users)...\n";
  const auto ds = core::make_standard_dataset(nodes, seed);
  const auto seed_user = core::top_users(ds, 1)[0];
  std::cout << "crawl seed: " << seed_user.name << " (in-degree "
            << seed_user.in_degree
            << ", as the paper seeded at Zuckerberg)\n\n";

  // Study 1: crawl quality vs coverage.
  std::cout << "Study 1 — what a partial BFS crawl sees\n";
  core::TextTable coverage_table({"Budget", "Crawled", "Boundary", "Edges",
                                  "Degree bias", "Edge recall", "Sim. hours"});
  for (double budget : {0.1, 0.3, 0.56, 1.0}) {
    service::SocialService svc(&ds.graph(), ds.profiles, {});
    crawler::CrawlConfig config;
    config.seed_node = seed_user.node;
    config.machines = 11;
    config.max_profiles =
        budget >= 1.0
            ? 0
            : static_cast<std::size_t>(budget * static_cast<double>(nodes));
    const auto crawl = crawler::run_bfs_crawl(svc, config);
    const auto bias = crawler::measure_bias(ds.graph(), crawl);
    coverage_table.add_row(
        {core::fmt_percent(budget, 0),
         core::fmt_count(crawl.stats.profiles_crawled),
         core::fmt_count(crawl.stats.boundary_nodes),
         core::fmt_count(crawl.graph.edge_count()),
         core::fmt_double(bias.degree_bias_ratio, 2),
         core::fmt_percent(bias.edge_recall, 1),
         core::fmt_double(crawl.stats.simulated_hours, 1)});
  }
  std::cout << coverage_table.str() << "\n";

  // Study 2: the circle-list cap.
  std::cout << "Study 2 — the public circle-list cap (paper: 10,000 entries, "
               "1.6% of edges lost)\n";
  core::TextTable cap_table({"Cap", "Users over cap", "Lost fraction"});
  for (std::uint32_t cap : {500u, 1000u, 2000u, 10000u}) {
    service::ServiceConfig sconfig;
    sconfig.circle_list_cap = cap;
    service::SocialService svc(&ds.graph(), ds.profiles, sconfig);
    crawler::CrawlConfig config;
    config.seed_node = seed_user.node;
    config.max_profiles = nodes / 2;  // partial, like the paper's 56%
    const auto crawl = crawler::run_bfs_crawl(svc, config);
    const auto est = crawler::estimate_lost_edges(svc, crawl);
    cap_table.add_row({core::fmt_count(cap),
                       core::fmt_count(est.users_over_cap),
                       core::fmt_percent(est.lost_fraction, 2)});
  }
  std::cout << cap_table.str() << "\n";

  // Study 3: hidden circle lists.
  std::cout << "Study 3 — users who set their lists private\n";
  core::TextTable hidden_table({"Hidden fraction", "Nodes seen", "Edges",
                                "Giant SCC"});
  for (double hidden : {0.0, 0.1, 0.3, 0.5}) {
    service::ServiceConfig sconfig;
    sconfig.hidden_list_fraction = hidden;
    service::SocialService svc(&ds.graph(), ds.profiles, sconfig);
    crawler::CrawlConfig config;
    // Find a public seed among the top users.
    config.seed_node = seed_user.node;
    for (const auto& candidate : core::top_users(ds, 20)) {
      if (svc.lists_public(candidate.node)) {
        config.seed_node = candidate.node;
        break;
      }
    }
    const auto crawl = crawler::run_bfs_crawl(svc, config);
    const auto sccs = algo::strongly_connected_components(crawl.graph);
    hidden_table.add_row({core::fmt_percent(hidden, 0),
                          core::fmt_count(crawl.node_count()),
                          core::fmt_count(crawl.graph.edge_count()),
                          core::fmt_percent(sccs.giant_fraction(), 1)});
  }
  std::cout << hidden_table.str();
  std::cout
      << "\nTakeaway: partial BFS coverage inflates degree estimates and\n"
         "privacy features shrink the observable graph — both caveats the\n"
         "paper notes; here they are quantified against ground truth.\n";
  return 0;
}
