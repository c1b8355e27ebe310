// Crawl resilience: fault injection, retry/backoff, kill-and-resume.
//
// The paper's crawl ran for 46 days across 11 machines against a live,
// rate-limited service — machines failed, pages truncated, requests were
// throttled. This bench turns the operating reality into a measurement:
//  * a fault-rate sweep showing how retries and backoff buy graph
//    fidelity with simulated wall-clock time, and the 11-machine fleet's
//    makespan and utilization under faults;
//  * the bit-identity check: every faulty crawl must collect exactly the
//    fault-free graph, or the retry layer is broken;
//  * a kill-and-resume demo: checkpoint mid-crawl, "lose" the fleet, and
//    finish from disk — converging to the same graph.
#include "bench_common.h"

#include <unistd.h>

#include <filesystem>
#include <string>

#include "core/analysis.h"
#include "core/table.h"
#include "crawler/crawler.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "service/service.h"

namespace {

using namespace gplus;

// Reconciles the registry delta across one crawl against this run's share
// of the crawl's own stats. The registry exports the crawl's counter cells,
// so any disagreement means a count was dropped or kept twice.
int reconcile_crawl(const char* label, const obs::MetricsSnapshot& d,
                    const crawler::RetryStats& run_retry,
                    std::uint64_t checkpoints_written) {
  int failures = 0;
  const auto expect = [&](const std::string& name, std::uint64_t want) {
    const auto got = static_cast<std::uint64_t>(d.value(name));
    if (got != want) {
      std::cout << "VIOLATION (" << label << "): registry " << name << "="
                << got << " but crawl bookkeeping says " << want << "\n";
      ++failures;
    }
  };
  for (const auto& field : crawler::kRetryCounters) {
    expect("crawler." + std::string(field.name), run_retry.*field.member);
  }
  expect("crawler.checkpoint.writes", checkpoints_written);
  return failures;
}

service::FaultConfig faults_at(double rate) {
  service::FaultConfig f;
  f.transient_rate = rate / 2.0;
  f.rate_limit_rate = rate / 4.0;
  f.truncation_rate = rate / 4.0;
  f.slow_rate = rate;
  return f;
}

bool identical(const crawler::CrawlResult& a, const crawler::CrawlResult& b) {
  if (a.original_id != b.original_id || a.crawled != b.crawled) return false;
  if (a.graph.node_count() != b.graph.node_count() ||
      a.graph.edge_count() != b.graph.edge_count())
    return false;
  for (graph::NodeId u = 0; u < a.graph.node_count(); ++u) {
    const auto an = a.graph.out_neighbors(u);
    const auto bn = b.graph.out_neighbors(u);
    if (!std::equal(an.begin(), an.end(), bn.begin(), bn.end())) return false;
  }
  return true;
}

}  // namespace

int main() {
  using namespace gplus;
  bench::banner("Crawl resilience", "faults, retries, checkpoint/resume");

  const auto& ds = bench::dataset();
  const std::size_t profiles =
      bench::env_or("GPLUS_CRAWL_PROFILES", 20'000);

  crawler::CrawlConfig base;
  base.seed_node = core::top_users(ds, 1)[0].node;
  base.machines = 11;
  base.max_profiles = profiles;

  // The fault-free reference every faulty run must reproduce exactly.
  service::SocialService clean(&ds.graph(), ds.profiles,
                               service::ServiceConfig{});
  const auto reference = crawler::run_bfs_crawl(clean, base);

  std::cout << "--- Fault-rate sweep (bounded crawl, " << profiles
            << " profiles, 11 machines) ---\n";
  core::TextTable sweep({"Fault rate", "Requests", "Retries", "Abandoned",
                         "Backoff (s)", "Sim. hours", "Graph"});
  auto& registry = obs::MetricsRegistry::global();
  int failures = 0;
  // Every faulty or resumed crawl must collect the fault-free graph.
  int misses = 0;
  const auto same_graph = [&](const crawler::CrawlResult& crawl) {
    const bool same = identical(reference, crawl);
    if (!same) ++misses;
    return same;
  };
  // Every crawl runs on the 11-machine fleet clock, so the fleet table
  // reads its rows off the sweep's 0%, 5% and 20% crawls.
  core::TextTable fleet_table({"Fault rate", "Makespan (days)", "Utilization",
                               "Rate-limit hits", "Graph"});
  for (double rate : {0.0, 0.02, 0.05, 0.10, 0.20, 0.40}) {
    service::ServiceConfig sconfig;
    sconfig.faults = faults_at(rate);
    service::SocialService svc(&ds.graph(), ds.profiles, sconfig);
    const auto before = registry.snapshot();
    const auto crawl = crawler::run_bfs_crawl(svc, base);
    failures += reconcile_crawl("sweep",
                                obs::delta(registry.snapshot(), before),
                                crawl.stats.retry,
                                crawl.stats.checkpoints_written);
    const char* graph = same_graph(crawl) ? "OK" : "MISS";
    sweep.add_row({core::fmt_percent(rate, 0),
                   core::fmt_count(crawl.stats.requests),
                   core::fmt_count(crawl.stats.retry.retries),
                   core::fmt_count(crawl.stats.retry.abandoned),
                   core::fmt_double(
                       static_cast<double>(crawl.stats.retry.backoff_micros) /
                           1e6,
                       1),
                   core::fmt_double(crawl.stats.simulated_hours, 2), graph});
    if (rate == 0.0 || rate == 0.05 || rate == 0.20) {
      fleet_table.add_row({core::fmt_percent(rate, 0),
                           core::fmt_double(crawl.makespan_days, 2),
                           core::fmt_percent(crawl.mean_utilization, 0),
                           core::fmt_count(crawl.stats.retry.rate_limited),
                           graph});
    }
  }
  std::cout << sweep.str();
  std::cout << "(every row must read OK: retries recover each injected fault,\n"
               " so the collected graph never depends on the fault schedule —\n"
               " the service only charges the crawl in time, not in edges)\n\n";

  std::cout << "--- Fleet makespan under faults (paper: 46 days, 11 machines)"
               " ---\n";
  std::cout << fleet_table.str();
  std::cout << "(rate limits and backoff show up as idle machine time: the\n"
               " makespan stretches while utilization drops)\n\n";

  std::cout << "--- Kill and resume (checkpoint every 2,000 profiles) ---\n";
  // The pid keeps concurrent runs apart; stdout never names the file, so
  // every run of one build prints the same bytes.
  const auto ckpt = std::filesystem::temp_directory_path() /
                    ("gplus_resilience_" + std::to_string(::getpid()) +
                     ".ckpt");
  std::filesystem::remove(ckpt);
  service::ServiceConfig sconfig;
  sconfig.faults = faults_at(0.10);

  crawler::CrawlConfig killed = base;
  killed.checkpoint.path = ckpt.string();
  killed.max_profiles = profiles / 2;
  service::SocialService first_svc(&ds.graph(), ds.profiles, sconfig);
  const auto before_kill = registry.snapshot();
  const auto first = crawler::run_bfs_crawl(first_svc, killed);
  failures += reconcile_crawl(
      "killed", obs::delta(registry.snapshot(), before_kill), first.stats.retry,
      first.stats.checkpoints_written);
  std::cout << "killed after " << core::fmt_count(first.stats.profiles_crawled)
            << " profiles (" << core::fmt_count(first.stats.checkpoints_written)
            << " checkpoints)\n";

  crawler::CrawlConfig resume = killed;
  resume.max_profiles = profiles;
  service::SocialService second_svc(&ds.graph(), ds.profiles, sconfig);
  const auto before_resume = registry.snapshot();
  const auto resumed = crawler::run_bfs_crawl(second_svc, resume);
  // The resumed run's RetryStats continue the checkpoint's (the kill leg's
  // final snapshot), so the registry delta covers only this run's fetches:
  // subtract the kill leg before reconciling.
  crawler::RetryStats resume_run = resumed.stats.retry;
  for (const auto& field : crawler::kRetryCounters) {
    resume_run.*field.member -= first.stats.retry.*field.member;
  }
  failures += reconcile_crawl(
      "resumed", obs::delta(registry.snapshot(), before_resume), resume_run,
      resumed.stats.checkpoints_written);
  std::cout << "resumed " << core::fmt_count(resumed.stats.resumed_profiles)
            << " profiles from disk, crawled "
            << core::fmt_count(resumed.stats.profiles_crawled)
            << " total; graph vs uninterrupted fault-free run: "
            << (same_graph(resumed) ? "OK (bit-identical)" : "MISS")
            << "\n";
  std::filesystem::remove(ckpt);

  // Every counter above is deterministic (the crawler is coordinator-only
  // and the parallel kernels use static chunk grids), so this dump is
  // byte-identical at any GPLUS_THREADS.
  std::cout << "\nmetrics (deterministic):\n"
            << obs::to_json(registry.snapshot(/*deterministic_only=*/true));
  if (failures != 0) {
    std::cout << failures << " registry reconciliation violation(s)\n";
  }
  if (misses != 0) {
    std::cout << misses << " crawl(s) collected a graph other than the"
                           " fault-free one\n";
  }
  return failures != 0 || misses != 0 ? 1 : 0;
}
