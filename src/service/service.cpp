#include "service/service.h"

#include <algorithm>

#include "stats/expect.h"
#include "stats/rng.h"

namespace gplus::service {

using graph::NodeId;

namespace {

// Deterministic per-node coin flip for the hidden-list assignment: hash the
// (seed, node) pair through splitmix64 and compare against the threshold.
bool hash_below(std::uint64_t seed, NodeId id, double fraction) {
  if (fraction <= 0.0) return false;
  if (fraction >= 1.0) return true;
  std::uint64_t state = seed ^ (0x9E3779B97F4A7C15ULL * (id + 1));
  const std::uint64_t h = stats::splitmix64_next(state);
  return static_cast<double>(h >> 11) * 0x1.0p-53 < fraction;
}

// Uniform [0,1) drawn from a splitmix64 chain over the key words. Pure in
// its inputs: the whole fault schedule derives from these, which is what
// makes faulty and resumed crawls replayable.
double fault_unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                  std::uint64_t c, std::uint64_t salt) {
  std::uint64_t state = seed;
  state ^= stats::splitmix64_next(state) + a;
  state ^= stats::splitmix64_next(state) + b;
  state ^= stats::splitmix64_next(state) + c;
  state ^= stats::splitmix64_next(state) + salt;
  const std::uint64_t h = stats::splitmix64_next(state);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

std::string_view fetch_error_name(FetchError error) noexcept {
  switch (error) {
    case FetchError::kNone: return "ok";
    case FetchError::kTransient: return "transient";
    case FetchError::kRateLimited: return "rate-limited";
    case FetchError::kTruncated: return "truncated";
  }
  return "unknown";
}

SocialService::SocialService(const graph::DiGraph* graph,
                             std::span<const synth::Profile> profiles,
                             ServiceConfig config)
    : graph_(graph), profiles_(profiles), config_(config) {
  GPLUS_EXPECT(graph != nullptr, "graph must not be null");
  GPLUS_EXPECT(profiles.size() == graph->node_count(),
               "profiles must cover every node");
  GPLUS_EXPECT(config.page_size > 0, "page size must be positive");
  const auto& f = config.faults;
  GPLUS_EXPECT(f.transient_rate >= 0.0 && f.transient_rate <= 1.0 &&
                   f.rate_limit_rate >= 0.0 && f.rate_limit_rate <= 1.0 &&
                   f.truncation_rate >= 0.0 && f.truncation_rate <= 1.0 &&
                   f.slow_rate >= 0.0 && f.slow_rate <= 1.0,
               "fault rates must be probabilities");
  GPLUS_EXPECT(f.transient_rate + f.rate_limit_rate + f.truncation_rate < 1.0,
               "combined failure rates must leave room for success");
  GPLUS_EXPECT(f.slow_factor >= 1.0, "slow factor must be >= 1");
}

bool SocialService::lists_public(NodeId id) const {
  graph_->check_node(id);
  return !hash_below(config_.seed, id, config_.hidden_list_fraction);
}

FetchStatus SocialService::roll_fault(std::uint64_t endpoint, NodeId id,
                                      std::uint32_t offset,
                                      std::uint32_t attempt, bool is_list) {
  FetchStatus status;
  const auto& f = config_.faults;
  if (!f.any()) return status;

  const std::uint64_t key_a = (endpoint << 32) | id;
  const std::uint64_t key_b = offset;
  // Slow responses are orthogonal to failures and may decorate any attempt.
  if (f.slow_rate > 0.0 &&
      fault_unit(f.seed, key_a, key_b, attempt, /*salt=*/1) < f.slow_rate) {
    status.latency_factor = f.slow_factor;
    ++faults_injected_.slow;
  }
  // The success guarantee: past max_faults_per_request the schedule only
  // ever says yes, so bounded retrying always converges.
  if (attempt >= f.max_faults_per_request) return status;

  const double u = fault_unit(f.seed, key_a, key_b, attempt, /*salt=*/0);
  if (u < f.transient_rate) {
    status.error = FetchError::kTransient;
    ++faults_injected_.transient;
  } else if (u < f.transient_rate + f.rate_limit_rate) {
    status.error = FetchError::kRateLimited;
    status.retry_after_ms = f.retry_after_ms;
    ++faults_injected_.rate_limited;
  } else if (is_list &&
             u < f.transient_rate + f.rate_limit_rate + f.truncation_rate) {
    // Counted at the delivery site: a cut landing past the page's content
    // is indistinguishable from a complete response.
    status.error = FetchError::kTruncated;
  }
  return status;
}

std::uint32_t SocialService::truncation_point(NodeId id, std::uint32_t offset,
                                              std::uint32_t attempt) const {
  // Cut somewhere strictly inside the page so the truncation is observable.
  const double u =
      fault_unit(config_.faults.seed, (std::uint64_t{7} << 32) | id, offset,
                 attempt, /*salt=*/2);
  return static_cast<std::uint32_t>(u * config_.page_size);
}

ProfileFetch SocialService::try_fetch_profile(NodeId id,
                                              std::uint32_t attempt) {
  graph_->check_node(id);
  ++requests_;
  ProfileFetch result;
  result.status = roll_fault(/*endpoint=*/0, id, 0, attempt, /*is_list=*/false);
  if (!result.status.ok()) return result;

  const synth::Profile& p = profiles_[id];
  ProfilePage& page = result.page;
  page.id = id;
  page.shared = p.shared;
  if (p.shared.test(synth::Attribute::kGender)) page.gender = p.gender;
  if (p.shared.test(synth::Attribute::kRelationship)) {
    page.relationship = p.relationship;
  }
  if (p.shared.test(synth::Attribute::kOccupation))
    page.occupation = p.occupation;
  if (p.is_located()) page.country = p.country;
  page.have_in_circles_total = graph_->in_degree(id);
  page.in_their_circles_total = graph_->out_degree(id);
  page.lists_public = lists_public(id);
  return result;
}

ListFetch SocialService::try_fetch_list(NodeId id, ListKind kind,
                                        std::uint32_t offset,
                                        std::uint32_t attempt) {
  graph_->check_node(id);
  ++requests_;
  ListFetch result;
  const std::uint64_t endpoint = 1 + static_cast<std::uint64_t>(kind);
  result.status = roll_fault(endpoint, id, offset, attempt, /*is_list=*/true);
  if (result.status.error == FetchError::kTransient ||
      result.status.error == FetchError::kRateLimited) {
    return result;  // nothing came back at all
  }

  CircleListPage& page = result.page;
  if (!lists_public(id)) {
    result.status.error = FetchError::kNone;  // a clean empty response
    return result;
  }

  const auto full = kind == ListKind::kHaveInCircles
                        ? graph_->in_neighbors(id)
                        : graph_->out_neighbors(id);
  const std::uint64_t visible =
      std::min<std::uint64_t>(full.size(), config_.circle_list_cap);
  page.capped = full.size() > visible;
  if (offset >= visible) {
    result.status.error = FetchError::kNone;  // empty tail page is clean
    return result;
  }

  std::uint64_t end = std::min<std::uint64_t>(
      visible, std::uint64_t{offset} + config_.page_size);
  if (result.status.error == FetchError::kTruncated) {
    // The connection died mid-page: deliver a strict prefix of the entries
    // this page should have carried, with pagination flags lying the way a
    // cut-off HTML response would.
    const std::uint64_t cut = offset + truncation_point(id, offset, attempt);
    if (cut >= end) {
      // The cut landed past this page's content; the response completed.
      result.status.error = FetchError::kNone;
    } else {
      end = cut;
      ++faults_injected_.truncated;
    }
  }
  page.users.assign(full.begin() + offset,
                    full.begin() + static_cast<std::ptrdiff_t>(end));
  page.has_more = end < visible && result.status.ok();
  return result;
}

ProfilePage SocialService::fetch_profile(NodeId id) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    ProfileFetch result = try_fetch_profile(id, attempt);
    if (result.status.ok()) return std::move(result.page);
  }
}

CircleListPage SocialService::fetch_list(NodeId id, ListKind kind,
                                         std::uint32_t offset) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    ListFetch result = try_fetch_list(id, kind, offset, attempt);
    if (result.status.ok()) return std::move(result.page);
  }
}

std::vector<NodeId> SocialService::fetch_full_list(NodeId id, ListKind kind) {
  std::vector<NodeId> out;
  std::uint32_t offset = 0;
  while (true) {
    const CircleListPage page = fetch_list(id, kind, offset);
    out.insert(out.end(), page.users.begin(), page.users.end());
    if (!page.has_more) break;
    offset += config_.page_size;
  }
  return out;
}

}  // namespace gplus::service
