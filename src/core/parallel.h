// Shared parallel runtime for the hot graph kernels.
//
// The paper's measurements (degree CCDFs, reciprocity, clustering,
// triangle census, SCC, sampled shortest paths — §3.3) all scan a
// 35M-node-scale graph; at that size every kernel must use all cores.
// This module provides the one process-wide worker pool they share:
//
//  * `parallel_for(n, grain, body)` — splits [0, n) into a *static chunk
//    grid* (chunk boundaries derived from `n` and `grain` only, never
//    from the thread count) and runs `body(begin, end)` per chunk.
//  * `parallel_reduce(n, grain, identity, map, combine)` — maps each
//    chunk into its own accumulator and combines the accumulators with a
//    fixed-order pairwise tree. Because the chunk grid and the combine
//    order are both thread-count independent, the result is *identical*
//    for every thread count: exact for integer accumulators, and
//    bit-for-bit reproducible for doubles (the combine tree applies the
//    same additions in the same order whether 1 or 64 lanes ran it).
//
// Determinism contract: any kernel built only from these primitives
// (plus race-free per-slot writes in `parallel_for`) returns the same
// value under GPLUS_THREADS=1 and GPLUS_THREADS=64. Several tier-1
// tests enforce this bit-for-bit.
//
// Sizing: the lane count defaults to the GPLUS_THREADS environment
// variable, falling back to std::thread::hardware_concurrency();
// `set_thread_count()` overrides it at runtime (0 restores the
// default). The pool is lazily created on first parallel call and spawns
// lanes-1 workers — the calling thread is always lane 0, so
// GPLUS_THREADS=1 never spawns a thread at all.
//
// Nesting and exceptions: a parallel region entered from inside a worker
// (or from the caller's own chunk) runs inline, so nested calls cannot
// deadlock the pool. The first exception thrown by any chunk is captured
// and rethrown on the submitting thread after the region completes.
//
// Grain-size guidance: pick `grain` so one chunk costs ~10µs-1ms of work
// (tens of thousands of simple ops, or a few hundred adjacency merges).
// Too small wastes dispatch overhead; too large starves load balancing.
// Chunk *boundaries* are part of a kernel's deterministic output for
// floating-point reductions, so changing a grain constant is an
// observable (if harmless) behaviour change.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace gplus::core {

/// Current lane count (>= 1): explicit set_thread_count() override, else
/// GPLUS_THREADS, else hardware concurrency.
std::size_t thread_count();

/// Overrides the lane count; 0 restores the GPLUS_THREADS/hardware
/// default. Joins existing workers when shrinking or growing; must not be
/// called from inside a parallel region.
void set_thread_count(std::size_t n);

/// Lane of the calling thread, in [0, thread_count()) inside a region:
/// the submitting thread is lane 0 and the pool's workers are lanes
/// 1 … lanes−1. A nested region runs inline and so keeps its thread's
/// lane; outside any region the caller is lane 0. No two chunks of a
/// region run on the same lane at once, so a kernel may index per-call
/// scratch by it.
std::size_t lane_index() noexcept;

/// Total worker threads ever spawned by the pool in this process —
/// introspection for oversubscription regression tests.
std::size_t pool_threads_spawned() noexcept;

/// Strict GPLUS_THREADS parser: accepts a decimal integer in [1, 4096]
/// with no trailing garbage, else prints a one-line diagnostic to stderr
/// and exits with status 2. A typo'd lane count must never silently fall
/// back to hardware concurrency — the determinism contract is per lane
/// count, so running at the wrong one invalidates a reproduction. Exposed
/// (rather than buried in the pool) so tests can exercise it directly.
std::size_t parse_thread_count_env(const char* raw);

namespace detail {

/// Number of chunks in the static grid over [0, n) with the given grain:
/// ceil(n / max(1, grain)). Thread-count independent by construction.
std::size_t chunk_count(std::size_t n, std::size_t grain) noexcept;

/// Runs body(chunk, begin, end) over the static chunk grid, distributing
/// chunks across the pool lanes. Blocks until every chunk completed;
/// rethrows the first chunk exception.
void run_chunks(std::size_t n, std::size_t grain,
                const std::function<void(std::size_t, std::size_t,
                                         std::size_t)>& body);

}  // namespace detail

/// Runs body(begin, end) for each chunk of the static grid over [0, n).
/// Chunks execute concurrently; the body must only write state disjoint
/// per index (or per chunk).
inline void parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  detail::run_chunks(n, grain,
                     [&](std::size_t, std::size_t begin, std::size_t end) {
                       body(begin, end);
                     });
}

/// Deterministic chunked reduction over [0, n).
///
/// `map(begin, end, acc)` folds one chunk into its private accumulator
/// (initialized to `identity`); `combine(into, from)` merges two
/// accumulators. Accumulators are combined with a fixed-order pairwise
/// tree over the chunk grid, so the result depends only on (n, grain,
/// map, combine) — never on the thread count. Integer reductions are
/// exact; floating-point reductions are bit-for-bit reproducible.
///
/// The accumulator `map` folds into is a local of the chunk's lane, moved
/// into its `partials` slot once the chunk ends. Adjacent slots share
/// cache lines, so folding into the slot itself would bounce that line
/// between lanes on every update (HyperANF updates its tally per arc).
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t n, std::size_t grain, T identity, Map map,
                  Combine combine) {
  const std::size_t chunks = detail::chunk_count(n, grain);
  if (chunks == 0) return identity;
  std::vector<T> partials(chunks, identity);
  detail::run_chunks(
      n, grain, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        T acc = identity;
        map(begin, end, acc);
        partials[chunk] = std::move(acc);
      });
  // Fixed-order pairwise tree: partials[i] absorbs partials[i + stride].
  for (std::size_t stride = 1; stride < chunks; stride *= 2) {
    for (std::size_t i = 0; i + stride < chunks; i += 2 * stride) {
      combine(partials[i], partials[i + stride]);
    }
  }
  return partials[0];
}

}  // namespace gplus::core
