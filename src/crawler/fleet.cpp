#include "crawler/fleet.h"

#include <algorithm>
#include <queue>

#include "crawler/frontier.h"
#include "stats/expect.h"
#include "stats/rng.h"

namespace gplus::crawler {

namespace {

// Event-driven fleet: each expanded profile goes to the earliest-free
// machine (a min-heap of free times models the shared frontier with greedy
// work stealing). A request costs pacing (rate limit) plus a sampled
// latency, slow responses multiply their latency draw, and backoff waits
// idle the machine: charged to its clock but not to its busy share.
class FleetClock final : public CrawlClock {
 public:
  FleetClock(const FleetConfig& config, double slow_factor)
      : config_(config),
        slow_factor_(slow_factor),
        rng_(config.seed),
        machines_(config.machines) {}

  void start(double elapsed_seconds) override {
    clock_start_ = elapsed_seconds;
    makespan_ = elapsed_seconds;
    for (std::size_t m = 0; m < config_.machines; ++m) {
      free_at_.push({elapsed_seconds, m});
    }
  }
  void charge(const UnitCost& unit) override {
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
  double elapsed_seconds() const override { return makespan_; }
  double run_hours() const override {
    return (makespan_ - clock_start_) / 3'600.0;
  }

  /// Moves the timing outcome into `result`: makespan, machines and the
  /// busy share of this run's machine time.
  void finish(FleetResult& result) {
    result.makespan_days = makespan_ / 86'400.0;
    const double run_seconds = makespan_ - clock_start_;
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

  const FleetConfig& config_;
  double slow_factor_;
  stats::Rng rng_;
  std::vector<MachineStats> machines_;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> free_at_;
  double clock_start_ = 0.0;  // simulated time already spent before resume
  double makespan_ = 0.0;
};

}  // namespace

FleetResult run_crawl_fleet(service::SocialService& service,
                            const FleetConfig& config) {
  GPLUS_EXPECT(config.requests_per_second > 0.0, "rate must be positive");
  GPLUS_EXPECT(config.mean_latency_seconds >= 0.0, "latency must be >= 0");
  FleetClock clock(config, service.config().faults.slow_factor);
  FleetResult result;
  result.crawl = run_crawl(service, config, clock);
  clock.finish(result);
  return result;
}

}  // namespace gplus::crawler
