// Crawl frontier state (internal to gplus_crawler).
//
// One unit of crawl work — fetch the page, fetch both circle lists with
// retries, record edges, enqueue newcomers — is FrontierState::expand_next;
// run_bfs_crawl loops over it, checkpoints on a cadence and charges each
// unit's UnitCost to the machine pool. So checkpoint/resume and fault
// handling never depend on the timing model: the collected graph is a pure
// function of the service's data and the frontier state.
//
// Counts are kept once. FrontierState keeps this run's retry counts and
// checkpoint writes in an obs::CounterStore laid out by kRetryCounters, the
// checkpoint cell last. The registry exports the retry cells from the run's
// first fetch and crawler.checkpoint.writes from its first checkpoint, so a
// name appears exactly when its count can first move. A crawl's RetryStats
// is the checkpoint's base plus this run's cells, as its request count is;
// timing reads only this run's cells.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "crawler/checkpoint.h"
#include "crawler/crawler.h"
#include "crawler/retry.h"
#include "graph/builder.h"
#include "obs/metrics.h"
#include "service/service.h"

namespace gplus::crawler {

/// What one profile expansion cost on the wire: the requests it issued and
/// how far it moved this run's slow, rate-limit and backoff counts.
struct UnitCost {
  std::uint64_t requests = 0;
  std::uint64_t slow = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t backoff_micros = 0;
};

/// Dense-id frontier + collected-edge state, resumable via CrawlCheckpoint.
class FrontierState {
 public:
  /// `universe` = service user count; allocates the first-sight map.
  explicit FrontierState(std::size_t universe);

  /// Dense id of `original`, registering it on first sight (FIFO order:
  /// original_id doubles as the BFS queue).
  graph::NodeId see(graph::NodeId original);

  /// Profiles seen so far, expanded or pending.
  std::size_t seen() const noexcept { return original_id_.size(); }
  /// True while unexpanded profiles remain.
  bool pending() const noexcept { return queue_head_ < original_id_.size(); }

  /// One unit of crawl work: expands the next frontier profile through the
  /// service with retries, records edges and flags, advances the queue.
  UnitCost expand_next(service::SocialService& service,
                       const RetryPolicy& policy, bool bidirectional);

  /// Restores state from a checkpoint; throws std::runtime_error when the
  /// checkpoint does not fit the universe or its own frontier.
  void restore(const CrawlCheckpoint& checkpoint);

  /// Snapshots the current state to `path` and counts the write.
  /// `requests` is the cumulative request count to persist;
  /// `elapsed_seconds` the cumulative simulated time.
  void save(const std::string& path, std::uint64_t requests,
            double elapsed_seconds);

  /// Moves the collected state into `result`: graph, id map, flags and
  /// every count in result.stats but requests and simulated_hours.
  void finish(CrawlResult& result);

  std::size_t profiles_crawled() const noexcept {
    return stats_.profiles_crawled;
  }

 private:
  void expand(service::SocialService& service, const RetryPolicy& policy,
              bool bidirectional);
  /// Cumulative retry counts: the restored base plus this run's cells.
  RetryStats retry() const;

  std::vector<graph::NodeId> new_id_;  // universe-sized first-sight map
  std::vector<graph::NodeId> original_id_;
  std::vector<std::uint8_t> crawled_;
  std::vector<std::uint8_t> degraded_;
  std::size_t queue_head_ = 0;
  graph::GraphBuilder edges_;
  // Profile, edge and list counts; its retry block is the restored base.
  CrawlStats stats_;
  obs::CounterStore counts_;  // this run: kRetryCounters, then checkpoints
};

}  // namespace gplus::crawler
