#include "serve/cache.h"

#include <algorithm>

#include "obs/metrics.h"

namespace gplus::serve {

namespace {

// Every CacheStats count, once, and its name under the owner's
// "serve[.<scope>].cache." prefix. Cache mutations all happen on the
// serving coordinator in request order (DESIGN.md §9), so the counts are
// deterministic.
constexpr obs::CounterField<CacheStats> kCounters[] = {
    {"hits", &CacheStats::hits},
    {"stale_hits", &CacheStats::stale_hits},
    {"misses", &CacheStats::misses},
    {"evictions", &CacheStats::evictions},
};
template <auto Field>
constexpr std::size_t kCell = obs::cell_of(kCounters, Field);

}  // namespace

ShardedLruCache::ShardedLruCache(std::size_t capacity, std::size_t shards,
                                 const std::string& metrics_scope)
    : capacity_(capacity),
      shards_(std::max<std::size_t>(1, shards)),
      counts_(std::size(kCounters)) {
  counts_.export_fields(kCounters, metrics_scope.empty()
                                       ? "serve.cache."
                                       : "serve." + metrics_scope + ".cache.");
  per_shard_ = (capacity_ + shards_.size() - 1) / shards_.size();
  for (auto& shard : shards_) {
    shard.index.reserve(per_shard_ + 1);
  }
}

bool ShardedLruCache::lookup(std::uint64_t key, std::vector<std::uint8_t>& out,
                             bool stale) {
  Shard& shard = shard_for(key);
  const auto hit = shard.index.find(key);
  if (hit == shard.index.end()) {
    counts_.add(kCell<&CacheStats::misses>);
    return false;
  }
  counts_.add(stale ? kCell<&CacheStats::stale_hits>
                    : kCell<&CacheStats::hits>);
  shard.lru.splice(shard.lru.begin(), shard.lru, hit->second);
  out.assign(hit->second->payload.begin(), hit->second->payload.end());
  return true;
}

void ShardedLruCache::insert(std::uint64_t key,
                             const std::vector<std::uint8_t>& payload) {
  if (capacity_ == 0) return;
  Shard& shard = shard_for(key);
  if (const auto present = shard.index.find(key);
      present != shard.index.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, present->second);
    present->second->payload = payload;
    return;
  }
  shard.lru.push_front(Entry{key, payload});
  shard.index.emplace(key, shard.lru.begin());
  if (shard.lru.size() > per_shard_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    counts_.add(kCell<&CacheStats::evictions>);
  }
}

CacheStats ShardedLruCache::stats() const noexcept {
  CacheStats total;
  counts_.read_fields(kCounters, total);
  for (const auto& shard : shards_) total.entries += shard.lru.size();
  return total;
}

void ShardedLruCache::clear() {
  for (auto& shard : shards_) {
    shard.lru.clear();
    shard.index.clear();
  }
  counts_.reset();
}

}  // namespace gplus::serve
