// Approximate Neighborhood Function (HyperANF-style).
//
// The paper's own hop-distribution estimate BFSes from up to 10,000
// sampled sources (§3.3.5); its cited comparison point — Backstrom et
// al.'s "Four degrees of separation" [3] — computes the *exact-in-
// expectation* neighborhood function of the full 721M-node Facebook graph
// with HyperANF: one HyperLogLog counter per node, advanced by one BFS
// level per pass via counter unions. This module implements that
// algorithm, giving a second, independent estimator for Figure 5 that
// covers ALL pairs instead of a source sample.
//
// HyperANF is a template over a graph view (algo/graph_view.h), so the
// same hop loop runs on a DiGraph and on a flat, compressed or mmap'd
// snapshot. Registers live in flat planes (n × 2^p bytes per layer)
// rather than per-node sketch objects — the allocator overhead of 35M
// small vectors would triple the footprint at paper scale.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "algo/graph_view.h"
#include "core/parallel.h"
#include "graph/digraph.h"
#include "stats/expect.h"
#include "stats/rng.h"

namespace gplus::algo {

// HyperLogLog register kernel over a raw span of m = 2^p registers: one
// node's sketch in the HyperANF register plane. `p` must be in [4, 16];
// every m is therefore a multiple of 16.

/// Folds one 64-bit hash into `regs`: the top p bits pick the register,
/// the rank of the remaining bits is max-ed into it.
void add_hash_to_registers(std::uint8_t* regs, unsigned p,
                           std::uint64_t hash) noexcept;

/// Register-wise max of `from` into `into`. Branch-free, 16 registers per
/// step (SSE2 on x86-64); pointers need no alignment. Returns true when any
/// register of `into` changed — HyperANF's convergence test.
bool merge_registers(std::uint8_t* into, const std::uint8_t* from,
                     std::size_t m) noexcept;

/// Estimated distinct count of `regs` (with the standard small-range
/// correction).
double estimate_registers(const std::uint8_t* regs, std::size_t m) noexcept;

/// Neighborhood function: anf[h] = estimated number of ordered pairs
/// (u, v) with distance(u, v) <= h (directed), anf[0] = node count.
struct NeighborhoodFunction {
  std::vector<double> reachable_pairs;  // index = hop count
  /// Mean distance over reachable pairs, from successive differences.
  double mean_distance = 0.0;
  /// Smallest h covering >= 90% of the final reachable mass.
  double effective_diameter = 0.0;
  /// Number of BFS-level passes executed until convergence.
  std::size_t iterations = 0;
};

/// HyperANF options.
struct AnfOptions {
  unsigned precision = 7;
  std::size_t max_hops = 64;
  bool undirected = false;
  std::uint64_t seed = 1;  // hash salt
};

namespace anf_detail {

/// Fills `mean_distance` and `effective_diameter` from `reachable_pairs`.
void summarize_distances(NeighborhoodFunction& anf) noexcept;

}  // namespace anf_detail

/// Runs HyperANF over any view. Throws std::invalid_argument when the
/// precision is outside [4, 16].
template <class View>
NeighborhoodFunction approximate_neighborhood_function(
    const View& view, const AnfOptions& options = {}) {
  const unsigned p = options.precision;
  GPLUS_EXPECT(p >= 4 && p <= 16, "precision must be in [4,16]");
  const std::size_t n = view.node_count();
  NeighborhoodFunction out;
  if (n == 0) return out;
  const std::size_t m = std::size_t{1} << p;

  // Flat register planes, current and next, seeded with each node's own
  // hash. Register unions are max — commutative and associative — and
  // each lane only writes next[u] for its own u range, so every phase of
  // a pass is race-free and thread-count independent.
  std::vector<std::uint8_t> current(n * m, 0);
  constexpr std::size_t kGrain = 1024;
  core::parallel_for(n, kGrain, [&](std::size_t begin, std::size_t end) {
    for (auto u = static_cast<graph::NodeId>(begin); u < end; ++u) {
      std::uint64_t state = options.seed ^ (0x9E3779B97F4A7C15ULL * (u + 1));
      add_hash_to_registers(current.data() + std::size_t{u} * m, p,
                            stats::splitmix64_next(state));
    }
  });

  auto total_estimate = [&] {
    // Per-node estimates are exact doubles of the serial path; the fixed
    // combine tree keeps the sum bit-identical across thread counts.
    return core::parallel_reduce(
        n, kGrain, 0.0,
        [&](std::size_t begin, std::size_t end, double& acc) {
          for (std::size_t u = begin; u < end; ++u) {
            acc += estimate_registers(current.data() + u * m, m);
          }
        },
        [](double& into, const double& from) { into += from; });
  };
  out.reachable_pairs.push_back(total_estimate());  // h = 0: the nodes

  std::vector<std::uint8_t> next = current;
  for (std::size_t hop = 1; hop <= options.max_hops; ++hop) {
    // char, not bool: std::vector<bool> slots can't bind the combine refs.
    const bool any_change =
        core::parallel_reduce(
            n, kGrain, char{0},
            [&](std::size_t begin, std::size_t end, char& changed) {
              for (auto u = static_cast<graph::NodeId>(begin); u < end;
                   ++u) {
                std::uint8_t* mine = next.data() + std::size_t{u} * m;
                auto merge_row = [&](auto scan) {
                  graph::NodeId v = 0;
                  while (scan.next(v)) {
                    changed |= merge_registers(
                        mine, current.data() + std::size_t{v} * m, m);
                  }
                };
                merge_row(view.out_scan(u));
                if (options.undirected) merge_row(view.in_scan(u));
              }
            },
            [](char& into, const char& from) { into |= from; }) != 0;
    core::parallel_for(n, kGrain, [&](std::size_t begin, std::size_t end) {
      std::memcpy(current.data() + begin * m, next.data() + begin * m,
                  (end - begin) * m);
    });
    out.iterations = hop;
    out.reachable_pairs.push_back(total_estimate());
    if (!any_change) break;
  }
  anf_detail::summarize_distances(out);
  return out;
}

}  // namespace gplus::algo
