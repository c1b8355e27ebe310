// Sharded LRU result cache for hot-profile and path queries.
//
// The paper's in-degree distribution is Zipf-like with α≈1.3 (§3.1): a
// handful of celebrities draw a disproportionate share of profile views,
// which is exactly the workload an LRU result cache converts from
// recompute into a hash probe. Keys are 64-bit request keys
// (`request_key`); values are encoded response payloads.
//
// The cache is sharded by key hash. Shards bound per-shard map size and
// give future concurrent servers independently lockable slices; today the
// batched server mutates the cache only from its coordinator thread in
// request order, which is what makes hit/miss/eviction counters and the
// final cache contents bit-identical at every worker count.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace gplus::serve {

/// Cache counters, built from the cache's counter store. `stale_hits`
/// counts hits served while the server was degraded (no live snapshot):
/// those answers may lag the graph, so they are tallied separately from
/// fresh `hits`.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t stale_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;

  bool operator==(const CacheStats&) const = default;
  double hit_rate() const noexcept {
    const std::uint64_t probes = hits + stale_hits + misses;
    return probes == 0 ? 0.0
                       : static_cast<double>(hits + stale_hits) /
                             static_cast<double>(probes);
  }
};

/// LRU cache over `shards` independent shards. Not internally synchronized:
/// the owner serializes access (see header comment).
class ShardedLruCache {
 public:
  /// `capacity` total entries spread evenly over `shards` (both >= 1;
  /// capacity 0 disables caching — every probe misses, inserts drop).
  /// `metrics_scope` qualifies the names the registry exports the counts
  /// under: "" gives "serve.cache.*"; a scope like "s0.r0" gives
  /// "serve.s0.r0.cache.*", so each cluster replica has its own slice.
  ShardedLruCache(std::size_t capacity, std::size_t shards,
                  const std::string& metrics_scope = "");

  /// Looks the key up; on hit promotes it to most-recent and copies the
  /// payload into `out` (cleared first). Counts a hit (or, when `stale` —
  /// a degraded-mode probe — a stale_hit) or a miss.
  bool lookup(std::uint64_t key, std::vector<std::uint8_t>& out,
              bool stale = false);

  /// Inserts (or refreshes) the payload, evicting the least-recent entry
  /// of the shard when over capacity. No-op when capacity is 0.
  void insert(std::uint64_t key, const std::vector<std::uint8_t>& payload);

  /// This cache's counts since construction or the last clear().
  CacheStats stats() const noexcept;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Drops every entry AND resets the counts: after clear() the cache is
  /// indistinguishable from a freshly constructed one, which is what makes
  /// post-hot-swap state comparable across runs. The registry's
  /// serve*.cache.* totals keep the cleared counts.
  void clear();

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::vector<std::uint8_t> payload;
  };
  struct Shard {
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
  };

  Shard& shard_for(std::uint64_t key) noexcept {
    // High bits pick the shard so the low bits remain free for the maps.
    return shards_[(key >> 48) % shards_.size()];
  }

  std::size_t capacity_ = 0;
  std::size_t per_shard_ = 0;
  std::vector<Shard> shards_;
  obs::CounterStore counts_;  // one cell per CacheStats counter
};

}  // namespace gplus::serve
