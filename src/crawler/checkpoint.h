// Crawl checkpoint/resume (§2 methodology: surviving machine restarts).
//
// A 46-day crawl does not survive on uptime — it survives on resumable
// state. The crawler periodically snapshots its frontier state (seen-order
// node list, crawled flags, collected edges, counters) to a single binary
// file, written atomically (temp file + rename) so a kill mid-write never
// corrupts the last good checkpoint. Because BFS expansion order is a pure
// function of the service's data and the frontier state, a crawl resumed
// from any profile boundary converges to the bit-identical graph of an
// uninterrupted run.
//
// Format GPLUSCK3, little-endian: the magic; the frontier, both flag
// vectors, the queue head and the edge buffer; the crawl counters; the
// RetryStats block as u64s in kRetryCounters row order (backoff as integer
// microseconds, the same llround-per-delay sum the registry counts); the
// elapsed simulated seconds as an f64; and a u64 FNV-1a of every byte
// between the magic and itself. The reader checks that checksum before it
// trusts any field and refuses trailing bytes. GPLUSCK1 (backoff as f64
// milliseconds) and GPLUSCK2 (no checksum) files are rejected by name.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crawler/retry.h"
#include "graph/types.h"

namespace gplus::crawler {

/// Checkpointing knobs for a crawl run.
struct CheckpointConfig {
  /// Checkpoint file path; empty disables checkpointing entirely.
  std::string path;
  /// Snapshot the state every N expanded profiles (0 = only the final
  /// state when the run ends).
  std::size_t every_profiles = 2'000;
  /// Load `path` at startup when it exists and continue from it.
  bool resume = true;
};

/// Everything a killed crawl needs to continue: the dense-id frontier
/// (original_id doubles as the BFS queue; queue_head splits expanded from
/// pending), per-node flags, the raw edge buffer in discovery order, and
/// the counters accumulated so far. Per-machine timing state is
/// deliberately *not* here — a resumed crawl restarts every machine at
/// elapsed_seconds.
struct CrawlCheckpoint {
  std::vector<graph::NodeId> original_id;
  std::vector<std::uint8_t> crawled;
  std::vector<std::uint8_t> degraded;  // had an abandoned fetch while expanding
  std::uint64_t queue_head = 0;
  std::vector<graph::Edge> edges;

  std::uint64_t profiles_crawled = 0;
  std::uint64_t edges_collected = 0;
  std::uint64_t requests = 0;
  std::uint64_t hidden_list_users = 0;
  std::uint64_t capped_users = 0;
  RetryStats retry;  // cumulative over every run that led here
  /// Simulated seconds already spent when the checkpoint was taken: the
  /// crawl's makespan so far, where a resumed crawl's clock picks up.
  double elapsed_seconds = 0.0;
};

/// Writes the checkpoint atomically; throws std::runtime_error on I/O
/// failure.
void save_checkpoint(const CrawlCheckpoint& checkpoint,
                     const std::string& path);

/// Loads a checkpoint; returns nullopt when the file does not exist and
/// throws std::runtime_error on a malformed, truncated, checksum-failing or
/// retired-format file.
std::optional<CrawlCheckpoint> load_checkpoint(const std::string& path);

}  // namespace gplus::crawler
