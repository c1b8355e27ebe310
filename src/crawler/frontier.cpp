#include "crawler/frontier.h"

#include <limits>
#include <numeric>
#include <stdexcept>

namespace gplus::crawler {

using graph::NodeId;

namespace {

constexpr NodeId kUnseen = std::numeric_limits<NodeId>::max();
// Checkpoint writes of this run: the cell after the kRetryCounters block.
constexpr std::size_t kCheckpointCell = std::size(kRetryCounters);

}  // namespace

FrontierState::FrontierState(std::size_t universe)
    : new_id_(universe, kUnseen), counts_(kCheckpointCell + 1) {}

NodeId FrontierState::see(NodeId original) {
  NodeId& slot = new_id_[original];
  if (slot == kUnseen) {
    slot = static_cast<NodeId>(original_id_.size());
    original_id_.push_back(original);
    crawled_.push_back(0);
    degraded_.push_back(0);
  }
  return slot;
}

UnitCost FrontierState::expand_next(service::SocialService& service,
                                    const RetryPolicy& policy,
                                    bool bidirectional) {
  // Every expansion issues at least one attempt, so a zero attempt cell
  // means this is the run's first fetch.
  if (counts_.value(kRetryCell<&RetryStats::attempts>) == 0) {
    counts_.export_fields(kRetryCounters, "crawler.");
  }
  const auto cell = [&](std::size_t c) { return counts_.value(c); };
  constexpr std::size_t kSlow = kRetryCell<&RetryStats::slow>;
  constexpr std::size_t kRateLimited = kRetryCell<&RetryStats::rate_limited>;
  constexpr std::size_t kBackoff = kRetryCell<&RetryStats::backoff_micros>;
  const UnitCost before{service.request_count(), cell(kSlow),
                        cell(kRateLimited), cell(kBackoff)};
  expand(service, policy, bidirectional);
  return {service.request_count() - before.requests, cell(kSlow) - before.slow,
          cell(kRateLimited) - before.rate_limited,
          cell(kBackoff) - before.backoff_micros};
}

void FrontierState::expand(service::SocialService& service,
                           const RetryPolicy& policy, bool bidirectional) {
  const NodeId dense_u = static_cast<NodeId>(queue_head_);
  const NodeId u = original_id_[queue_head_++];
  crawled_[dense_u] = 1;
  ++stats_.profiles_crawled;

  const service::ProfileFetch profile =
      fetch_profile_with_retry(service, policy, u, counts_);
  if (!profile.status.ok()) {
    // Retry budget exhausted on the page itself: nothing about this user
    // was learned. The node stays in the graph as a degraded expansion.
    degraded_[dense_u] = 1;
    return;
  }
  if (!profile.page.lists_public) {
    ++stats_.hidden_list_users;
    return;
  }

  bool capped = false;
  bool degraded = false;
  // Followees: edge u -> v.
  {
    const ListWithRetry list = fetch_full_list_with_retry(
        service, policy, u, service::ListKind::kInTheirCircles, counts_);
    capped |= list.capped;
    degraded |= !list.complete;
    for (NodeId v : list.users) {
      edges_.add_edge(dense_u, see(v));
      ++stats_.edges_collected;
    }
  }
  // Followers: edge v -> u (the bidirectional half that recovers edges
  // lost to other users' caps or privacy).
  if (bidirectional) {
    const ListWithRetry list = fetch_full_list_with_retry(
        service, policy, u, service::ListKind::kHaveInCircles, counts_);
    capped |= list.capped;
    degraded |= !list.complete;
    for (NodeId v : list.users) {
      edges_.add_edge(see(v), dense_u);
      ++stats_.edges_collected;
    }
  }
  if (capped) ++stats_.capped_users;
  if (degraded) degraded_[dense_u] = 1;
}

void FrontierState::restore(const CrawlCheckpoint& checkpoint) {
  const std::size_t universe = new_id_.size();
  // Every expansion advances the queue head and the profile count
  // together, and counts its user as hidden-list, capped or neither.
  if (checkpoint.original_id.size() > universe ||
      checkpoint.crawled.size() != checkpoint.original_id.size() ||
      checkpoint.degraded.size() != checkpoint.original_id.size() ||
      checkpoint.queue_head > checkpoint.original_id.size() ||
      checkpoint.profiles_crawled != checkpoint.queue_head ||
      checkpoint.hidden_list_users > checkpoint.profiles_crawled ||
      checkpoint.capped_users >
          checkpoint.profiles_crawled - checkpoint.hidden_list_users) {
    throw std::runtime_error("checkpoint: inconsistent with this service");
  }
  original_id_ = checkpoint.original_id;
  crawled_ = checkpoint.crawled;
  degraded_ = checkpoint.degraded;
  queue_head_ = static_cast<std::size_t>(checkpoint.queue_head);
  for (std::size_t dense = 0; dense < original_id_.size(); ++dense) {
    const NodeId original = original_id_[dense];
    if (original >= universe || new_id_[original] != kUnseen) {
      throw std::runtime_error("checkpoint: inconsistent with this service");
    }
    new_id_[original] = static_cast<NodeId>(dense);
  }
  // An endpoint past the frontier would size the graph beyond it.
  for (const graph::Edge& e : checkpoint.edges) {
    if (e.from >= original_id_.size() || e.to >= original_id_.size()) {
      throw std::runtime_error("checkpoint: inconsistent with this service");
    }
  }
  edges_.clear();
  edges_.add_edges(checkpoint.edges);
  stats_.profiles_crawled =
      static_cast<std::size_t>(checkpoint.profiles_crawled);
  stats_.resumed_profiles = stats_.profiles_crawled;
  stats_.edges_collected = checkpoint.edges_collected;
  stats_.hidden_list_users =
      static_cast<std::size_t>(checkpoint.hidden_list_users);
  stats_.capped_users = static_cast<std::size_t>(checkpoint.capped_users);
  stats_.retry = checkpoint.retry;
}

void FrontierState::save(const std::string& path, std::uint64_t requests,
                         double elapsed_seconds) {
  CrawlCheckpoint cp;
  cp.original_id = original_id_;
  cp.crawled = crawled_;
  cp.degraded = degraded_;
  cp.queue_head = queue_head_;
  const auto buffered = edges_.buffered_edges();
  cp.edges.assign(buffered.begin(), buffered.end());
  cp.profiles_crawled = stats_.profiles_crawled;
  cp.edges_collected = stats_.edges_collected;
  cp.requests = requests;
  cp.hidden_list_users = stats_.hidden_list_users;
  cp.capped_users = stats_.capped_users;
  cp.retry = retry();
  cp.elapsed_seconds = elapsed_seconds;
  save_checkpoint(cp, path);
  if (counts_.value(kCheckpointCell) == 0) {
    counts_.export_cell(kCheckpointCell, "crawler.checkpoint.writes");
  }
  counts_.add(kCheckpointCell);
}

RetryStats FrontierState::retry() const {
  RetryStats total = stats_.retry;
  for (std::size_t i = 0; i < std::size(kRetryCounters); ++i) {
    total.*kRetryCounters[i].member += counts_.value(i);
  }
  return total;
}

void FrontierState::finish(CrawlResult& result) {
  result.stats = stats_;
  result.stats.boundary_nodes = original_id_.size() - stats_.profiles_crawled;
  result.stats.retry = retry();
  result.stats.degraded_users =
      std::accumulate(degraded_.begin(), degraded_.end(), std::size_t{0});
  result.stats.checkpoints_written = counts_.value(kCheckpointCell);

  // Ensure isolated seen nodes (e.g. a hidden-list seed) are representable.
  if (!original_id_.empty()) {
    edges_.ensure_node(static_cast<NodeId>(original_id_.size() - 1));
  }
  result.graph = edges_.build();
  result.original_id = std::move(original_id_);
  result.crawled = std::move(crawled_);
  result.degraded = std::move(degraded_);
}

}  // namespace gplus::crawler
