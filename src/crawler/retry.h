// Retry/backoff policy for crawling a flaky service (§2 operating reality).
//
// The paper's 46-day crawl survived rate limits, dropped connections and
// truncated pages because the crawlers retried; this module makes that
// explicit. Errors from the service's `try_fetch_*` channel are classified
// and retried with capped exponential backoff plus deterministic jitter —
// the jitter is a pure hash of (policy seed, request key, attempt), never
// shared mutable RNG state, so a killed-and-resumed crawl replays the
// exact same delays and a fleet's machines never need to synchronize.
#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "service/service.h"

namespace gplus::crawler {

/// Backoff/retry knobs.
struct RetryPolicy {
  /// Retries per logical request after the first attempt; a request is
  /// *abandoned* (data lost, accounted) once they are exhausted. Keep at
  /// least FaultConfig::max_faults_per_request to guarantee convergence.
  std::uint32_t max_retries = 32;
  /// First backoff delay, milliseconds.
  double base_backoff_ms = 100.0;
  /// Backoff growth per retry (capped).
  double backoff_multiplier = 2.0;
  /// Backoff ceiling, milliseconds.
  double max_backoff_ms = 60'000.0;
  /// Fraction of each delay that is jittered: the delay is scaled by a
  /// deterministic factor in [1 - jitter, 1].
  double jitter = 0.5;
  /// Seed of the jitter hash.
  std::uint64_t seed = 77;
};

/// Retry accounting, aggregated over many requests: a plain value read
/// from a crawl's counter store (see kRetryCounters).
struct RetryStats {
  std::uint64_t attempts = 0;        // fetch attempts issued, failures included
  std::uint64_t retries = 0;         // attempts beyond the first
  std::uint64_t transient = 0;       // faults seen, by kind
  std::uint64_t rate_limited = 0;
  std::uint64_t truncated = 0;
  std::uint64_t slow = 0;            // slow (but successful) responses
  std::uint64_t abandoned = 0;       // requests given up after max_retries
  std::uint64_t backoff_micros = 0;  // time backing off, llround per delay
};

/// Every RetryStats count, named once. Row i is cell i of the store the
/// fetch helpers count into, slot i of a checkpoint's retry block, and the
/// registry counter "crawler." + name.
inline constexpr obs::CounterField<RetryStats> kRetryCounters[] = {
    {"fetch.attempts", &RetryStats::attempts},
    {"fetch.retries", &RetryStats::retries},
    {"fault.transient", &RetryStats::transient},
    {"fault.rate_limited", &RetryStats::rate_limited},
    {"fault.truncated", &RetryStats::truncated},
    {"fetch.slow", &RetryStats::slow},
    {"fetch.abandoned", &RetryStats::abandoned},
    {"backoff.micros", &RetryStats::backoff_micros},
};

/// Cell of `Field` in a store laid out by kRetryCounters.
template <auto Field>
constexpr std::size_t kRetryCell = obs::cell_of(kRetryCounters, Field);

/// Stable identity of a logical request, for jitter hashing: profile
/// fetches use offset 0 and a distinct endpoint tag.
std::uint64_t request_key(graph::NodeId id, std::uint64_t endpoint,
                          std::uint32_t offset) noexcept;

/// Delay before retry number `attempt` (0-based: the delay after the
/// first failed attempt has attempt == 0). Deterministic: capped
/// exponential growth scaled by hashed jitter, floored at the service's
/// Retry-After hint when one was given.
double backoff_delay_ms(const RetryPolicy& policy,
                        const service::FetchStatus& status, std::uint64_t key,
                        std::uint32_t attempt) noexcept;

/// Fetches a profile with retries. Returns the final attempt's result
/// (status.ok() == false means the request was abandoned) and adds every
/// attempt, fault and backoff wait to the kRetryCounters cells of `counts`;
/// each delay also lands in the registry's crawler.backoff.delay_ms
/// histogram.
service::ProfileFetch fetch_profile_with_retry(service::SocialService& service,
                                               const RetryPolicy& policy,
                                               graph::NodeId id,
                                               obs::CounterStore& counts);

/// Paginates a full list, retrying each page until it arrives clean (a
/// truncated page is retried, never consumed). When a page is abandoned
/// the pagination stops and `complete` is false: every entry gathered so
/// far is returned, the rest is lost — the §2.2 accounting charges it.
struct ListWithRetry {
  std::vector<graph::NodeId> users;
  bool complete = true;
  bool capped = false;
};

ListWithRetry fetch_full_list_with_retry(service::SocialService& service,
                                         const RetryPolicy& policy,
                                         graph::NodeId id,
                                         service::ListKind kind,
                                         obs::CounterStore& counts);

}  // namespace gplus::crawler
