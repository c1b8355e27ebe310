// Bidirectional BFS crawler over the simulated service (§2.2).
//
// Reproduces the paper's collection methodology: start from a single seed
// profile, fetch its public in- and out-circle lists (bidirectional BFS),
// enqueue every newly seen user, and repeat until the budget or the
// reachable set is exhausted. The crawler never touches the ground-truth
// graph directly — only through the service's fetch API.
//
// §2.2: "We used a total of 11 machines with different IP addresses to
// efficiently gather large amount of data" over 46 days. Time is charged
// through that fleet: each expanded profile goes to the earliest-free
// machine (a shared frontier with greedy work stealing), where every
// request costs the machine's rate-limit pacing plus a sampled latency.
// That yields a makespan and per-machine utilization, so "the crawl took
// six weeks" is a model output instead of an input.
//
// The service may inject faults (see service::FaultConfig); the crawler
// classifies them, retries with capped exponential backoff + deterministic
// jitter, honors Retry-After hints, and — when a checkpoint path is
// configured — periodically snapshots frontier + visited + edge state so a
// killed crawl resumes and converges to the bit-identical graph an
// uninterrupted, fault-free crawl produces. Backoff waits idle a machine:
// they are charged to its clock but not its busy share, so utilization
// degrades the way a real throttled fleet's would. The collected graph is
// a function of frontier state and service data only, never of timing.
#pragma once

#include <cstdint>
#include <vector>

#include "crawler/checkpoint.h"
#include "crawler/retry.h"
#include "graph/builder.h"
#include "graph/digraph.h"
#include "service/service.h"
#include "stats/rng.h"

namespace gplus::crawler {

/// Crawl parameters.
struct CrawlConfig {
  /// Profile to start from (the paper seeded with Mark Zuckerberg).
  graph::NodeId seed_node = 0;
  /// Stop after expanding this many profiles (0 = crawl everything
  /// reachable). Counts profiles restored from a checkpoint too.
  std::size_t max_profiles = 0;
  /// Follow the followers list (in-circles) as well as followees.
  bool bidirectional = true;
  /// Simulated crawl machines sharing the frontier.
  std::size_t machines = 11;
  /// Sustained request rate per machine (requests/second) — polite-crawl
  /// rates were around 1-5 req/s per IP in 2011.
  double requests_per_second = 2.0;
  /// Mean service latency per request, seconds (adds to the rate cap).
  double mean_latency_seconds = 0.15;
  /// Seed for the latency model.
  std::uint64_t seed = 23;
  /// Error classification + backoff behaviour under injected faults.
  RetryPolicy retry;
  /// Checkpoint/resume behaviour (path empty = disabled).
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

/// Crawl outcome statistics.
struct CrawlStats {
  /// Profiles whose page + lists were fetched ("crawled").
  std::size_t profiles_crawled = 0;
  /// Users seen in someone's list but never expanded (frontier + cap-hidden
  /// discoveries). The paper's graph has 35.1M nodes of which 27.5M were
  /// crawled; the rest are exactly this boundary.
  std::size_t boundary_nodes = 0;
  /// Directed edges collected (before dedup).
  std::uint64_t edges_collected = 0;
  /// Fetch requests issued (failed attempts included), cumulative like
  /// `retry`.
  std::uint64_t requests = 0;
  /// Simulated wall-clock of this run, hours: the makespan's growth
  /// over this run, rate limits, latency, slow responses and backoff
  /// waits included.
  double simulated_hours = 0.0;
  /// Users whose lists were private.
  std::size_t hidden_list_users = 0;
  /// Users with at least one list truncated by the service cap.
  std::size_t capped_users = 0;
  /// Fetch/retry accounting under injected faults, cumulative: the resumed
  /// checkpoint's counts plus this run's.
  RetryStats retry;
  /// Users whose expansion lost data to an abandoned fetch (retry budget
  /// exhausted) — the fault-induced analogue of the §2.2 cap loss.
  std::size_t degraded_users = 0;
  /// Checkpoints written during this run.
  std::uint64_t checkpoints_written = 0;
  /// Profiles that were already expanded in the checkpoint this run
  /// resumed from (0 when starting fresh).
  std::size_t resumed_profiles = 0;
};

/// Result of a crawl: the collected graph over the *seen* universe with
/// dense relabeled ids, plus bookkeeping to map back.
struct CrawlResult {
  graph::DiGraph graph;
  /// original service id of each crawled-graph node.
  std::vector<graph::NodeId> original_id;
  /// crawled[new_id]: the node was expanded (true) vs only seen (false).
  std::vector<std::uint8_t> crawled;
  /// degraded[new_id]: expansion lost data to an abandoned fetch.
  std::vector<std::uint8_t> degraded;
  CrawlStats stats;
  /// Simulated wall-clock of the whole crawl (resumed time included), days.
  double makespan_days = 0.0;
  /// Mean busy share of this run's machine time (1 = perfectly saturated);
  /// waiting on rate limits and backoff counts against it.
  double mean_utilization = 0.0;
  /// This run's accounting, one entry per machine.
  std::vector<MachineStats> machines;

  std::size_t node_count() const noexcept { return original_id.size(); }
};

/// Runs the BFS crawl against `service`: validates the config, restores
/// from the checkpoint or seeds, expands profiles until the frontier or the
/// max_profiles budget runs out, checkpointing on the cadence and at the
/// end. With `checkpoint.resume` set, an existing checkpoint file is loaded
/// and the crawl (its clock included) continues from it. Spans land on the
/// trace's virtual clock, advanced by requests issued.
CrawlResult run_bfs_crawl(service::SocialService& service,
                          const CrawlConfig& config);

/// §2.2's lost-edge estimate: for every crawled user whose displayed
/// follower total exceeds the collected edges, accumulate the difference;
/// the estimate is (sum of differences) / (collected edges + differences).
/// The paper reports 1.6%. Fault-degraded users are accounted separately:
/// their loss is retry-budget exhaustion, not the cap.
struct LostEdgeEstimate {
  std::uint64_t displayed_total = 0;  // followers shown on capped profiles
  std::uint64_t collected_total = 0;  // edges actually gathered for them
  std::uint64_t users_over_cap = 0;   // profiles with > cap followers
  double lost_fraction = 0.0;         // missing / all collected edges
  /// Fault-induced loss: displayed-vs-collected shortfall of degraded
  /// users below the cap (cap loss and fault loss never double-count).
  std::uint64_t degraded_users = 0;
  std::uint64_t fault_displayed_total = 0;
  std::uint64_t fault_collected_total = 0;
  double fault_lost_fraction = 0.0;
};

LostEdgeEstimate estimate_lost_edges(service::SocialService& service,
                                     const CrawlResult& crawl);

}  // namespace gplus::crawler
