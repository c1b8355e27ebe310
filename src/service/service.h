// Simulated Google+ service frontend (§2 methodology substrate).
//
// Stands in for the plus.google.com endpoints the original crawler hit:
//  * a profile page per user showing the publicly shared fields and the
//    *displayed totals* of both circle lists ("Have user in circles" /
//    "In user's circles") — totals are shown even when the list itself is
//    capped;
//  * public circle-list fetches, truncated at 10,000 entries (the limit
//    that loses ~1.6% of edges in §2.2) and paginated;
//  * users may set their lists private, in which case list fetches return
//    nothing but the profile page still renders.
//
// The live service the paper crawled was *flaky*: 46 days across 11
// machines meant rate limiting, dropped connections, truncated pages and
// slow responses were the operating reality. The fault layer reproduces
// that: a deterministic, seeded schedule injects transient failures,
// rate-limit responses with a retry-after hint, slow responses and
// mid-pagination truncation, surfaced through an explicit `FetchStatus`
// error channel (`try_fetch_*`) instead of silent success.
//
// Every fetch attempt is counted (failed ones too), so crawl cost and
// simulated wall-clock can be accounted per §2.2's "11 machines,
// Nov 11 – Dec 27" setup.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/digraph.h"
#include "synth/profile.h"

namespace gplus::service {

/// What went wrong with a fetch attempt (kNone = clean success).
enum class FetchError : std::uint8_t {
  kNone = 0,     // success
  kTransient,    // dropped connection / 5xx — retry immediately
  kRateLimited,  // 429-style throttle — honor retry_after_ms before retrying
  kTruncated,    // list page cut short mid-pagination — partial data, refetch
};

/// Human-readable error name.
std::string_view fetch_error_name(FetchError error) noexcept;

/// Seeded fault schedule. The schedule is a pure function of
/// (seed, endpoint, user, offset, attempt): replaying the same attempt
/// sequence replays the same faults, which is what makes faulty crawls and
/// killed-and-resumed crawls reproducible bit-for-bit.
struct FaultConfig {
  /// Probability an attempt fails with a transient error.
  double transient_rate = 0.0;
  /// Probability an attempt is rate-limited (with retry_after_ms hint).
  double rate_limit_rate = 0.0;
  /// Probability a *list* attempt returns a mid-pagination truncated page.
  double truncation_rate = 0.0;
  /// Probability a successful attempt is slow (latency_factor applied).
  double slow_rate = 0.0;
  /// Retry-After hint attached to rate-limit responses, milliseconds.
  std::uint32_t retry_after_ms = 2'000;
  /// Latency multiplier of a slow response.
  double slow_factor = 10.0;
  /// Guarantee: attempts numbered >= this always succeed, so a crawler
  /// retrying at least this many times converges on complete data.
  std::uint32_t max_faults_per_request = 16;
  /// Seed of the fault schedule (independent of the privacy seed).
  std::uint64_t seed = 1312;

  /// True when any fault can ever fire.
  bool any() const noexcept {
    return transient_rate > 0.0 || rate_limit_rate > 0.0 ||
           truncation_rate > 0.0 || slow_rate > 0.0;
  }
};

/// Per-attempt outcome metadata for the error channel.
struct FetchStatus {
  FetchError error = FetchError::kNone;
  /// Rate-limit hint: do not retry before this many milliseconds.
  std::uint32_t retry_after_ms = 0;
  /// Latency multiplier for this attempt (slow responses > 1).
  double latency_factor = 1.0;

  /// True when the attempt produced complete, trustworthy data.
  bool ok() const noexcept { return error == FetchError::kNone; }
};

/// Injected-fault accounting, by kind.
struct FaultCounters {
  std::uint64_t transient = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t truncated = 0;
  std::uint64_t slow = 0;

  std::uint64_t total_failures() const noexcept {
    return transient + rate_limited + truncated;
  }
};

/// Service behavior knobs.
struct ServiceConfig {
  /// Maximum number of entries a public circle list will ever reveal.
  std::uint32_t circle_list_cap = 10'000;
  /// Entries per list page (one fetch request per page).
  std::uint32_t page_size = 1'000;
  /// Fraction of users who set their circle lists private.
  double hidden_list_fraction = 0.0;
  /// Seed for the deterministic hidden-list assignment.
  std::uint64_t seed = 7;
  /// Fault-injection schedule (defaults to a perfect network).
  FaultConfig faults;
};

/// What a profile-page fetch returns.
struct ProfilePage {
  graph::NodeId id = 0;
  /// Publicly shared attributes (Name always present).
  synth::AttributeMask shared;
  /// Restricted-field values, present only when shared.
  std::optional<synth::Gender> gender;
  std::optional<synth::Relationship> relationship;
  std::optional<synth::Occupation> occupation;
  /// Geocoded "places lived" country, when shared.
  std::optional<geo::CountryId> country;
  /// Displayed totals of the two lists (rendered even beyond the cap; §2.2
  /// uses them to estimate lost edges).
  std::uint64_t have_in_circles_total = 0;  // in-degree
  std::uint64_t in_their_circles_total = 0; // out-degree
  /// False when the user hid both lists.
  bool lists_public = true;
};

/// One page of a circle list.
struct CircleListPage {
  std::vector<graph::NodeId> users;
  /// True when more pages exist below the cap.
  bool has_more = false;
  /// True when the full list exceeds the service cap (entries beyond it are
  /// unobtainable from this side).
  bool capped = false;
};

/// Profile fetch outcome: `page` is meaningful only when `status.ok()`.
struct ProfileFetch {
  FetchStatus status;
  ProfilePage page;
};

/// List fetch outcome. On kTruncated, `page` holds the *partial* data the
/// flaky response carried — a caller that consumes it anyway under-counts
/// edges exactly the way the paper's crawler would have.
struct ListFetch {
  FetchStatus status;
  CircleListPage page;
};

/// Which of the two public lists to fetch.
enum class ListKind : std::uint8_t {
  kHaveInCircles,  // followers: users who added this profile
  kInTheirCircles, // followees: users this profile added
};

/// The simulated service. Read-only over the ground-truth network; cheap to
/// copy-construct views from. Not thread-safe w.r.t. the request counters.
class SocialService {
 public:
  /// Both `graph` and `profiles` must outlive the service;
  /// profiles.size() must equal graph->node_count().
  SocialService(const graph::DiGraph* graph,
                std::span<const synth::Profile> profiles, ServiceConfig config);

  /// Fetches a profile page through the error channel (1 request per
  /// attempt, failed attempts included). `attempt` indexes retries of the
  /// same logical request; the fault schedule is deterministic in it.
  ProfileFetch try_fetch_profile(graph::NodeId id, std::uint32_t attempt = 0);

  /// Fetches one page of a circle list through the error channel.
  /// `offset` is the entry offset (multiples of page_size give the natural
  /// pagination). Returns an empty page when the user's lists are private.
  ListFetch try_fetch_list(graph::NodeId id, ListKind kind,
                           std::uint32_t offset, std::uint32_t attempt = 0);

  /// Fetches a profile page, transparently retrying injected faults until
  /// success (fault-free behaviour is a single request). Kept for callers
  /// that do not model retries (samplers, legacy tests).
  ProfilePage fetch_profile(graph::NodeId id);

  /// Fetches one complete page of a circle list, transparently retrying
  /// injected faults (including truncated pages) until clean.
  CircleListPage fetch_list(graph::NodeId id, ListKind kind,
                            std::uint32_t offset);

  /// Convenience: fetches every visible page of a list, counting one
  /// request per page (plus retries under faults).
  std::vector<graph::NodeId> fetch_full_list(graph::NodeId id, ListKind kind);

  /// True when the user's circle lists are publicly visible.
  bool lists_public(graph::NodeId id) const;

  /// Total fetch requests served so far (failed attempts count: the wire
  /// was used either way).
  std::uint64_t request_count() const noexcept { return requests_; }
  void reset_request_count() noexcept { requests_ = 0; }

  /// Faults injected so far, by kind.
  const FaultCounters& fault_counters() const noexcept {
    return faults_injected_;
  }

  std::size_t user_count() const noexcept { return graph_->node_count(); }
  const ServiceConfig& config() const noexcept { return config_; }

 private:
  /// Rolls the fault schedule for one attempt. `endpoint` disambiguates
  /// profile (0) vs list (1 + kind) requests; lists may also truncate.
  FetchStatus roll_fault(std::uint64_t endpoint, graph::NodeId id,
                         std::uint32_t offset, std::uint32_t attempt,
                         bool is_list);

  /// Deterministic truncation point for a faulty list page.
  std::uint32_t truncation_point(graph::NodeId id, std::uint32_t offset,
                                 std::uint32_t attempt) const;

  const graph::DiGraph* graph_;
  std::span<const synth::Profile> profiles_;
  ServiceConfig config_;
  std::uint64_t requests_ = 0;
  FaultCounters faults_injected_;
};

}  // namespace gplus::service
