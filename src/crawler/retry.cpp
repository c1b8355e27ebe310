#include "crawler/retry.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "stats/rng.h"

namespace gplus::crawler {

using graph::NodeId;

std::uint64_t request_key(NodeId id, std::uint64_t endpoint,
                          std::uint32_t offset) noexcept {
  std::uint64_t state = (endpoint << 60) ^ (std::uint64_t{offset} << 32) ^ id;
  return stats::splitmix64_next(state);
}

double backoff_delay_ms(const RetryPolicy& policy,
                        const service::FetchStatus& status, std::uint64_t key,
                        std::uint32_t attempt) noexcept {
  double delay =
      policy.base_backoff_ms *
      std::pow(policy.backoff_multiplier, static_cast<double>(attempt));
  delay = std::min(delay, policy.max_backoff_ms);
  if (policy.jitter > 0.0) {
    std::uint64_t state = policy.seed ^ key;
    state ^= stats::splitmix64_next(state) + attempt;
    const std::uint64_t h = stats::splitmix64_next(state);
    const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
    delay *= 1.0 - policy.jitter * unit;
  }
  // A rate limit is a contract, not a hint to halve: never retry earlier
  // than the service asked.
  return std::max(delay, static_cast<double>(status.retry_after_ms));
}

namespace {

// Classifies one failed attempt into the counters.
void count_fault(obs::CounterStore& counts,
                 const service::FetchStatus& status) {
  switch (status.error) {
    case service::FetchError::kTransient:
      return counts.add(kRetryCell<&RetryStats::transient>);
    case service::FetchError::kRateLimited:
      return counts.add(kRetryCell<&RetryStats::rate_limited>);
    case service::FetchError::kTruncated:
      return counts.add(kRetryCell<&RetryStats::truncated>);
    case service::FetchError::kNone:
      return;
  }
}

// Shared retry loop over either endpoint. `fetch(attempt)` issues one
// attempt and returns its FetchStatus; the loop owns the accounting. Every
// fetch passes through here, so each count is added once, to the caller's
// store. All quantities are pure functions of (seed, request), hence
// deterministic.
template <typename Result, typename Fetch>
Result retry_loop(const RetryPolicy& policy, std::uint64_t key, Fetch&& fetch,
                  obs::CounterStore& counts) {
  static obs::Histogram& delay_hist = obs::MetricsRegistry::global().histogram(
      "crawler.backoff.delay_ms",
      {1, 5, 10, 50, 100, 500, 1000, 5000, 15000, 60000});
  for (std::uint32_t attempt = 0;; ++attempt) {
    Result result = fetch(attempt);
    counts.add(kRetryCell<&RetryStats::attempts>);
    if (attempt > 0) counts.add(kRetryCell<&RetryStats::retries>);
    if (result.status.latency_factor > 1.0) {
      counts.add(kRetryCell<&RetryStats::slow>);
    }
    if (result.status.ok()) return result;
    count_fault(counts, result.status);
    if (attempt >= policy.max_retries) {
      counts.add(kRetryCell<&RetryStats::abandoned>);
      return result;
    }
    const double delay_ms =
        backoff_delay_ms(policy, result.status, key, attempt);
    // llround of a deterministic double is deterministic; micros keep the
    // integer counter faithful to sub-millisecond jitter.
    counts.add(kRetryCell<&RetryStats::backoff_micros>,
               static_cast<std::uint64_t>(std::llround(delay_ms * 1000.0)));
    delay_hist.record(static_cast<std::uint64_t>(std::llround(delay_ms)));
  }
}

service::ListFetch fetch_list_with_retry(service::SocialService& service,
                                         const RetryPolicy& policy, NodeId id,
                                         service::ListKind kind,
                                         std::uint32_t offset,
                                         obs::CounterStore& counts) {
  const std::uint64_t endpoint = 1 + static_cast<std::uint64_t>(kind);
  const std::uint64_t key = request_key(id, endpoint, offset);
  return retry_loop<service::ListFetch>(
      policy, key,
      [&](std::uint32_t attempt) {
        return service.try_fetch_list(id, kind, offset, attempt);
      },
      counts);
}

}  // namespace

service::ProfileFetch fetch_profile_with_retry(service::SocialService& service,
                                               const RetryPolicy& policy,
                                               NodeId id,
                                               obs::CounterStore& counts) {
  const std::uint64_t key = request_key(id, /*endpoint=*/0, 0);
  return retry_loop<service::ProfileFetch>(
      policy, key,
      [&](std::uint32_t attempt) {
        return service.try_fetch_profile(id, attempt);
      },
      counts);
}

ListWithRetry fetch_full_list_with_retry(service::SocialService& service,
                                         const RetryPolicy& policy, NodeId id,
                                         service::ListKind kind,
                                         obs::CounterStore& counts) {
  ListWithRetry out;
  std::uint32_t offset = 0;
  while (true) {
    service::ListFetch fetch =
        fetch_list_with_retry(service, policy, id, kind, offset, counts);
    if (!fetch.status.ok()) {
      out.complete = false;  // page abandoned: the tail of this list is lost
      return out;
    }
    out.capped |= fetch.page.capped;
    out.users.insert(out.users.end(), fetch.page.users.begin(),
                     fetch.page.users.end());
    if (!fetch.page.has_more) return out;
    offset += service.config().page_size;
  }
}

}  // namespace gplus::crawler
