#include "crawler/crawler.h"

#include <cmath>

#include "crawler/frontier.h"
#include "obs/metrics.h"

namespace gplus::crawler {

using graph::NodeId;

namespace {

// One latency draw per request, slow responses charged their multiplier,
// plus this run's backoff waits — all divided across the machine pool. A
// resumed run restarts this clock, so checkpoints record 0 for it.
class SerialClock final : public CrawlClock {
 public:
  SerialClock(const CrawlConfig& config, double slow_factor)
      : config_(config), slow_factor_(slow_factor), latency_rng_(config.seed) {}

  void charge(const UnitCost& unit) override {
    for (std::uint64_t i = 0; i < unit.requests; ++i) {
      serial_ms_ +=
          latency_rng_.next_exponential(1.0 / config_.mean_request_latency_ms);
    }
    slow_ += unit.slow;
    backoff_micros_ += unit.backoff_micros;
  }
  double run_hours() const override {
    const double serial_ms =
        serial_ms_ +
        static_cast<double>(slow_) * (slow_factor_ - 1.0) *
            config_.mean_request_latency_ms +
        static_cast<double>(backoff_micros_) / 1'000.0;
    return serial_ms / static_cast<double>(config_.machines) / 3.6e6;
  }

 private:
  const CrawlConfig& config_;
  double slow_factor_;
  stats::Rng latency_rng_;
  double serial_ms_ = 0.0;
  std::uint64_t slow_ = 0;
  std::uint64_t backoff_micros_ = 0;
};

}  // namespace

CrawlResult run_bfs_crawl(service::SocialService& service,
                          const CrawlConfig& config) {
  SerialClock clock(config, service.config().faults.slow_factor);
  return run_crawl(service, config, clock);
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
  const std::uint64_t missing = shortfall(est.displayed_total, est.collected_total);
  const std::uint64_t fault_missing =
      shortfall(est.fault_displayed_total, est.fault_collected_total);
  const std::uint64_t total_edges = crawl.graph.edge_count();
  est.lost_fraction =
      total_edges == 0 ? 0.0
                       : static_cast<double>(missing) / static_cast<double>(total_edges);
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
