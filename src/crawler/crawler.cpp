#include "crawler/crawler.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>

#include "crawler/frontier.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/expect.h"

namespace gplus::crawler {

using graph::NodeId;

namespace {

// Each expanded profile goes to the earliest-free machine (a min-heap of
// free times models the shared frontier with greedy work stealing). A
// request costs pacing (rate limit) plus a sampled latency, slow responses
// multiply their latency draw, and backoff waits idle the machine: charged
// to its clock but not to its busy share.
class MachinePool {
 public:
  /// Starts every machine at the simulated seconds a restored checkpoint
  /// had already spent (0 for a fresh crawl).
  MachinePool(const CrawlConfig& config, double slow_factor,
              double elapsed_seconds)
      : config_(config),
        slow_factor_(slow_factor),
        rng_(config.seed),
        machines_(config.machines),
        clock_start_(elapsed_seconds),
        makespan_(elapsed_seconds) {
    for (std::size_t m = 0; m < config_.machines; ++m) {
      free_at_.push({elapsed_seconds, m});
    }
  }

  /// Charges one expanded profile to the earliest-free machine.
  void charge(const UnitCost& unit) {
    auto [free_time, machine] = free_at_.top();
    free_at_.pop();
    double unit_seconds = 0.0;
    for (std::uint64_t r = 0; r < unit.requests; ++r) {
      unit_seconds += 1.0 / config_.requests_per_second;  // rate limit
      if (config_.mean_latency_seconds > 0.0) {
        unit_seconds +=
            rng_.next_exponential(1.0 / config_.mean_latency_seconds);
      }
    }
    if (config_.mean_latency_seconds > 0.0 && unit.slow > 0) {
      unit_seconds += static_cast<double>(unit.slow) * (slow_factor_ - 1.0) *
                      config_.mean_latency_seconds;
    }
    const double unit_waiting = static_cast<double>(unit.backoff_micros) / 1e6;
    MachineStats& stats = machines_[machine];
    stats.requests += unit.requests;
    stats.busy_seconds += unit_seconds;
    stats.waiting_seconds += unit_waiting;
    stats.rate_limited += unit.rate_limited;
    const double done_at = free_time + unit_seconds + unit_waiting;
    makespan_ = std::max(makespan_, done_at);
    free_at_.push({done_at, machine});
  }

  /// Cumulative simulated seconds, as a checkpoint records them.
  double elapsed_seconds() const { return makespan_; }

  /// Moves the timing outcome into `result`: this run's hours, the
  /// makespan, the machines and the busy share of this run's machine time.
  void finish(CrawlResult& result) {
    const double run_seconds = makespan_ - clock_start_;
    result.stats.simulated_hours = run_seconds / 3'600.0;
    result.makespan_days = makespan_ / 86'400.0;
    if (run_seconds > 0.0) {
      double busy = 0.0;
      for (const MachineStats& m : machines_) busy += m.busy_seconds;
      result.mean_utilization =
          busy / (run_seconds * static_cast<double>(config_.machines));
    }
    result.machines = std::move(machines_);
  }

 private:
  using Slot = std::pair<double, std::size_t>;  // (free_at, machine)

  const CrawlConfig& config_;
  double slow_factor_;
  stats::Rng rng_;
  std::vector<MachineStats> machines_;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> free_at_;
  double clock_start_;  // simulated time already spent before resume
  double makespan_;
};

}  // namespace

CrawlResult run_bfs_crawl(service::SocialService& service,
                          const CrawlConfig& config) {
  const std::size_t universe = service.user_count();
  GPLUS_EXPECT(universe > 0, "service has no users");
  GPLUS_EXPECT(config.seed_node < universe, "seed node out of range");
  GPLUS_EXPECT(config.machines > 0, "need at least one crawl machine");
  GPLUS_EXPECT(config.requests_per_second > 0.0, "rate must be positive");
  GPLUS_EXPECT(config.mean_latency_seconds >= 0.0, "latency must be >= 0");

  FrontierState state(universe);
  const bool checkpointing = !config.checkpoint.path.empty();
  const auto restored = checkpointing && config.checkpoint.resume
                            ? load_checkpoint(config.checkpoint.path)
                            : std::nullopt;
  if (restored) state.restore(*restored);
  if (state.seen() == 0) state.see(config.seed_node);
  const std::uint64_t base_requests = restored ? restored->requests : 0;
  MachinePool pool(config, service.config().faults.slow_factor,
                   restored ? restored->elapsed_seconds : 0.0);

  auto& trace = obs::TraceLog::global();
  obs::TraceLog::Scope run_span(trace, "crawl.run");
  const std::uint64_t requests_before = service.request_count();
  const auto run_requests = [&] {
    return service.request_count() - requests_before;
  };
  // The trace clock advances by simulated requests issued since the last
  // stamp — a deterministic quantity — so spans land at reproducible
  // virtual times at any thread count.
  std::uint64_t traced_requests = 0;
  const auto stamp_clock = [&] {
    trace.advance(run_requests() - traced_requests);
    traced_requests = run_requests();
  };
  const auto take_checkpoint = [&] {
    const std::uint64_t requests = base_requests + run_requests();
    stamp_clock();
    obs::TraceLog::Scope span(trace, "crawl.checkpoint");
    span.attr("profiles", state.profiles_crawled());
    span.attr("requests", requests);
    state.save(config.checkpoint.path, requests, pool.elapsed_seconds());
  };

  while (state.pending() && (config.max_profiles == 0 ||
                              state.profiles_crawled() < config.max_profiles)) {
    pool.charge(
        state.expand_next(service, config.retry, config.bidirectional));
    if (checkpointing && config.checkpoint.every_profiles != 0 &&
        state.profiles_crawled() % config.checkpoint.every_profiles == 0) {
      take_checkpoint();
    }
  }
  if (checkpointing) take_checkpoint();
  stamp_clock();

  CrawlResult result;
  state.finish(result);
  result.stats.requests = base_requests + run_requests();
  pool.finish(result);
  run_span.attr("profiles", result.stats.profiles_crawled);
  run_span.attr("edges", result.stats.edges_collected);
  run_span.attr("requests", run_requests());
  return result;
}

LostEdgeEstimate estimate_lost_edges(service::SocialService& service,
                                     const CrawlResult& crawl) {
  LostEdgeEstimate est;
  const auto cap = service.config().circle_list_cap;
  for (std::size_t dense = 0; dense < crawl.node_count(); ++dense) {
    if (!crawl.crawled[dense]) continue;
    const auto page = service.fetch_profile(crawl.original_id[dense]);
    const auto collected = crawl.graph.in_degree(static_cast<NodeId>(dense));
    if (page.have_in_circles_total > cap) {
      ++est.users_over_cap;
      est.displayed_total += page.have_in_circles_total;
      est.collected_total += collected;
    } else if (crawl.degraded[dense]) {
      // Below the cap but short on edges: the shortfall is fault loss
      // (abandoned fetches), the §2.2 arithmetic applied to flakiness.
      ++est.degraded_users;
      est.fault_displayed_total += page.have_in_circles_total;
      est.fault_collected_total += collected;
    }
  }
  const auto shortfall = [](std::uint64_t displayed, std::uint64_t collected) {
    return displayed > collected ? displayed - collected : 0;
  };
  const std::uint64_t missing =
      shortfall(est.displayed_total, est.collected_total);
  const std::uint64_t fault_missing =
      shortfall(est.fault_displayed_total, est.fault_collected_total);
  const std::uint64_t total_edges = crawl.graph.edge_count();
  est.lost_fraction = total_edges == 0
                          ? 0.0
                          : static_cast<double>(missing) /
                                static_cast<double>(total_edges);
  est.fault_lost_fraction =
      total_edges == 0 ? 0.0
                       : static_cast<double>(fault_missing) /
                             static_cast<double>(total_edges);

  // The §2.2 lost-edge estimate is a level, not a flow: publish it as
  // gauges (fractions in parts-per-million so the registry stays integer).
  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("crawler.lost.users_over_cap")
      .set(static_cast<std::int64_t>(est.users_over_cap));
  reg.gauge("crawler.lost.degraded_users")
      .set(static_cast<std::int64_t>(est.degraded_users));
  reg.gauge("crawler.lost.displayed_total")
      .set(static_cast<std::int64_t>(est.displayed_total));
  reg.gauge("crawler.lost.collected_total")
      .set(static_cast<std::int64_t>(est.collected_total));
  reg.gauge("crawler.lost.fraction_ppm")
      .set(std::llround(est.lost_fraction * 1e6));
  reg.gauge("crawler.lost.fault_fraction_ppm")
      .set(std::llround(est.fault_lost_fraction * 1e6));
  return est;
}

}  // namespace gplus::crawler
