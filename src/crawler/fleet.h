// Crawl-fleet simulation: the paper's "11 machines" made concrete.
//
// §2.2: "We used a total of 11 machines with different IP addresses to
// efficiently gather large amount of data" over 46 days. The BfsCrawler
// charges a latency per request and divides by the machine count — an
// idealization. The fleet runs the same crawl loop (the collected graph
// and every count come from it) but charges each expanded profile to an
// event-driven pool where every machine has its own request-rate limit and
// the shared frontier feeds whichever machine frees up first. That yields
// a makespan and per-machine utilization, so "the crawl took six weeks"
// is a model output instead of an input.
//
// Under injected faults each machine retries with backoff and honors the
// service's Retry-After hints — waiting time is charged to the machine's
// clock but not its busy share, so utilization degrades the way a real
// throttled fleet's would. The fleet shares the crawler's checkpoint
// format: a killed fleet resumes from the last snapshot, its clock picking
// up at the checkpoint's elapsed time, and converges to the bit-identical
// graph of an uninterrupted, fault-free crawl (the collected graph is a
// function of frontier state and service data only, never of the timing
// model).
#pragma once

#include <cstdint>
#include <vector>

#include "crawler/crawler.h"
#include "service/service.h"

namespace gplus::crawler {

/// Fleet parameters.
struct FleetConfig {
  graph::NodeId seed_node = 0;
  std::size_t machines = 11;
  /// Sustained request rate per machine (requests/second) — polite-crawl
  /// rates were around 1-5 req/s per IP in 2011.
  double requests_per_second = 2.0;
  /// Mean service latency per request, seconds (adds to the rate cap).
  double mean_latency_seconds = 0.15;
  /// Stop after expanding this many profiles (0 = everything reachable).
  /// Counts profiles restored from a checkpoint too.
  std::size_t max_profiles = 0;
  /// Follow the followers list as well as followees.
  bool bidirectional = true;
  std::uint64_t seed = 23;
  /// Error classification + backoff behaviour under injected faults.
  RetryPolicy retry;
  /// Checkpoint/resume behaviour (path empty = disabled); the format is
  /// shared with run_bfs_crawl.
  CheckpointConfig checkpoint;
};

/// Per-machine accounting.
struct MachineStats {
  std::uint64_t requests = 0;
  double busy_seconds = 0.0;
  /// Time spent idle in backoff / Retry-After waits.
  double waiting_seconds = 0.0;
  /// Rate-limit responses this machine absorbed.
  std::uint64_t rate_limited = 0;
};

/// Fleet outcome.
struct FleetResult {
  /// Simulated wall-clock of the whole crawl (resumed time included), days.
  double makespan_days = 0.0;
  /// Mean busy share of this run's machine time (1 = perfectly saturated);
  /// waiting on rate limits and backoff counts against it.
  double mean_utilization = 0.0;
  std::vector<MachineStats> machines;
  /// The collected graph + per-node flags + crawl stats (profiles,
  /// requests, fetch/retry counts), identical in content to what
  /// run_bfs_crawl gathers from the same service.
  CrawlResult crawl;
};

/// Runs the BFS crawl through the event-driven fleet. Work unit = one
/// profile expansion (profile page + both list fetches, retries included);
/// units are assigned to the earliest-free machine, which models a shared
/// frontier with greedy work stealing.
FleetResult run_crawl_fleet(service::SocialService& service,
                            const FleetConfig& config);

}  // namespace gplus::crawler
