#include "core/report.h"

#include <algorithm>

#include "algo/clustering.h"
#include "algo/reciprocity.h"
#include "core/analysis.h"
#include "core/geo_analysis.h"
#include "core/reference.h"
#include "core/table.h"
#include "crawler/crawler.h"
#include "service/service.h"
#include "stats/descriptive.h"

namespace gplus::core {

namespace {

void section(std::ostream& out, const std::string& title) {
  out << "\n## " << title << "\n\n";
}

// Markdown table row.
void md_row(std::ostream& out, std::initializer_list<std::string> cells) {
  out << "|";
  for (const auto& cell : cells) out << " " << cell << " |";
  out << "\n";
}

}  // namespace

void write_report(const Dataset& dataset, std::ostream& out,
                  const ReportOptions& options) {
  out << "# Google+ reproduction report\n\n";
  out << "Synthetic dataset: " << fmt_count(dataset.user_count()) << " users, "
      << fmt_count(dataset.graph().edge_count())
      << " directed edges. Paper: 27.5M crawled profiles, 575M links.\n";

  if (options.include_structure) {
    section(out, "Structure (Table 4, Figures 3-5)");
    stats::Rng rng(options.seed);
    const auto s =
        structural_summary(dataset.graph(), options.path_sources, rng);
    const auto& paper = google_plus_reference();
    md_row(out, {"Metric", "Measured", "Paper"});
    md_row(out, {"---", "---", "---"});
    md_row(out, {"Mean degree", fmt_double(s.mean_degree, 2),
                 fmt_double(*paper.mean_in_degree, 1)});
    md_row(out, {"Reciprocity", fmt_percent(s.reciprocity),
                 fmt_percent(paper.reciprocity, 0)});
    md_row(out, {"Mean path length", fmt_double(s.path_length, 2),
                 fmt_double(paper.path_length, 1)});
    md_row(out, {"Diameter (lower bound)",
                 std::to_string(s.diameter_lower_bound),
                 std::to_string(paper.diameter)});
    const auto& constants = paper_constants();
    md_row(out, {"Giant SCC", fmt_percent(s.giant_scc_fraction),
                 fmt_percent(constants.giant_scc_fraction(), 0)});
    md_row(out, {"In-degree alpha", fmt_double(s.in_alpha, 2),
                 fmt_double(constants.in_degree_alpha, 1)});
    md_row(out, {"Out-degree alpha", fmt_double(s.out_alpha, 2),
                 fmt_double(constants.out_degree_alpha, 1)});

    stats::Rng cc_rng(options.seed + 1);
    const auto cc = algo::sampled_clustering_coefficients(
        dataset.graph(), options.clustering_sample, cc_rng);
    std::size_t cc_high = 0;
    for (double c : cc) cc_high += c > 0.2;
    out << "\nClustering: mean " << fmt_double(stats::mean(cc), 3) << ", "
        << fmt_percent(cc.empty() ? 0.0
                                  : static_cast<double>(cc_high) /
                                        static_cast<double>(cc.size()))
        << " of users above 0.2 (paper: 40%).\n";
  }

  section(out, "Profiles (Tables 2-3, Figure 2)");
  const auto attributes = attribute_availability(dataset);
  md_row(out, {"Attribute", "Available", "Share"});
  md_row(out, {"---", "---", "---"});
  for (const auto& row : attributes) {
    md_row(out, {std::string(synth::attribute_name(row.attribute)),
                 fmt_count(row.available), fmt_percent(row.fraction)});
  }
  const auto all = cohort_breakdown(dataset, false);
  const auto tel = cohort_breakdown(dataset, true);
  out << "\nTel-users: " << fmt_count(tel.total) << " ("
      << fmt_percent(all.total ? static_cast<double>(tel.total) /
                                     static_cast<double>(all.total)
                               : 0.0, 2)
      << " of users; paper 0.26%), male share "
      << fmt_percent(tel.gender_share[0]) << " vs "
      << fmt_percent(all.gender_share[0]) << " overall (paper: 86% vs 68%).\n";

  if (options.include_geography) {
    section(out, "Geography (Figures 6-10)");
    const auto shares = located_country_shares(dataset);
    md_row(out, {"Rank", "Country", "Share of located users"});
    md_row(out, {"---", "---", "---"});
    for (std::size_t i = 0; i < std::min<std::size_t>(10, shares.size()); ++i) {
      md_row(out, {std::to_string(i + 1),
                   std::string(geo::country(shares[i].country).name),
                   fmt_percent(shares[i].fraction, 1)});
    }

    stats::Rng rng(options.seed + 2);
    auto miles = sample_path_miles(dataset, options.path_mile_pairs, rng);
    auto within = [](std::vector<double>& v, double x) {
      if (v.empty()) return 0.0;
      std::sort(v.begin(), v.end());
      const auto it = std::upper_bound(v.begin(), v.end(), x);
      return static_cast<double>(it - v.begin()) /
             static_cast<double>(v.size());
    };
    out << "\nPath miles: " << fmt_percent(within(miles.friends, 1000.0))
        << " of friend pairs within 1,000 miles (paper: 58%); random pairs "
        << fmt_percent(within(miles.random, 1000.0)) << ".\n";

    const auto links = country_link_graph(dataset);
    std::size_t us = 0, gb = 0;
    for (std::size_t i = 0; i < links.countries.size(); ++i) {
      const auto code = geo::country(links.countries[i]).code;
      if (code == "US") us = i;
      if (code == "GB") gb = i;
    }
    out << "Country mixing: US self-loop " << fmt_double(links.self_loop(us), 2)
        << " (paper 0.79), GB self-loop " << fmt_double(links.self_loop(gb), 2)
        << " (paper 0.30), GB->US " << fmt_double(links.weight[gb][us], 2)
        << " (paper 0.36).\n";
  }

  if (options.include_crawl) {
    section(out, "Crawl methodology (§2.2)");
    service::ServiceConfig sconfig;
    sconfig.faults.transient_rate = options.crawl_fault_rate / 2.0;
    sconfig.faults.rate_limit_rate = options.crawl_fault_rate / 4.0;
    sconfig.faults.truncation_rate = options.crawl_fault_rate / 4.0;
    sconfig.faults.slow_rate = options.crawl_fault_rate;
    service::SocialService svc(&dataset.graph(), dataset.profiles, sconfig);
    crawler::CrawlConfig cconfig;
    cconfig.seed_node = top_users(dataset, 1)[0].node;
    cconfig.max_profiles = options.crawl_profiles;
    const auto crawl = crawler::run_bfs_crawl(svc, cconfig);
    const auto lost = crawler::estimate_lost_edges(svc, crawl);
    const auto& retry = crawl.stats.retry;

    out << "Bounded BFS crawl against a flaky service (total fault rate "
        << fmt_percent(options.crawl_fault_rate, 0) << "): "
        << fmt_count(crawl.stats.profiles_crawled) << " profiles expanded, "
        << fmt_count(crawl.graph.edge_count()) << " edges collected.\n\n";
    md_row(out, {"Fetch counter", "Value"});
    md_row(out, {"---", "---"});
    md_row(out, {"Requests (attempts)", fmt_count(crawl.stats.requests)});
    md_row(out, {"Retries", fmt_count(retry.retries)});
    md_row(out, {"Transient failures", fmt_count(retry.transient)});
    md_row(out, {"Rate-limit responses", fmt_count(retry.rate_limited)});
    md_row(out, {"Truncated pages", fmt_count(retry.truncated)});
    md_row(out, {"Slow responses", fmt_count(retry.slow)});
    md_row(out, {"Abandoned fetches", fmt_count(retry.abandoned)});
    md_row(out,
           {"Backoff time (s)",
            fmt_double(static_cast<double>(retry.backoff_micros) / 1e6, 1)});
    out << "\nLost edges: cap loss " << fmt_percent(lost.lost_fraction, 2)
        << " (paper §2.2: 1.6%), fault loss "
        << fmt_percent(lost.fault_lost_fraction, 2)
        << " (" << fmt_count(lost.degraded_users)
        << " degraded users; zero when retries cover the fault schedule).\n";
  }

  section(out, "Top users (Table 1)");
  const auto top = top_users(dataset, 10);
  md_row(out, {"Rank", "Name", "Occupation", "In-degree"});
  md_row(out, {"---", "---", "---", "---"});
  for (std::size_t i = 0; i < top.size(); ++i) {
    md_row(out, {std::to_string(i + 1), top[i].name,
                 std::string(synth::occupation_name(top[i].occupation)),
                 fmt_count(top[i].in_degree)});
  }
  out << "\nIT share of the top list: " << fmt_percent(it_fraction(top), 0)
      << " (paper: 7 of 20).\n";
}

}  // namespace gplus::core
