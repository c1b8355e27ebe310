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
  /// merge_registers calls over all passes. A full pass would merge once
  /// per arc (twice when undirected); the systolic loop skips neighbours
  /// whose registers did not grow on the previous pass, so this is at most
  /// iterations × arcs (× 2 when undirected).
  std::uint64_t register_merges = 0;
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
///
/// Systolic passes (HyperBall): registers only grow, so merging from a
/// neighbour whose registers did not change on the previous pass is a
/// no-op. Each pass merges only from neighbours flagged as changed, and
/// flags a node when a merge grew its registers. Only flagged rows are
/// copied back and re-estimated; every other node keeps its cached
/// estimate. The cache is summed over the same chunk grid as a full
/// re-estimate would be, so `reachable_pairs` is bit-identical to the
/// full-merge loop. Extra memory: 8 B/node of estimates, 2 B/node of
/// flags.
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
  // each lane only writes next[u], estimate[u] and grew[u] for its own u
  // range, so every phase of a pass is race-free and thread-count
  // independent.
  std::vector<std::uint8_t> current(n * m, 0);
  std::vector<double> estimate(n);
  constexpr std::size_t kGrain = 1024;
  core::parallel_for(n, kGrain, [&](std::size_t begin, std::size_t end) {
    for (auto u = static_cast<graph::NodeId>(begin); u < end; ++u) {
      std::uint8_t* row = current.data() + std::size_t{u} * m;
      std::uint64_t state = options.seed ^ (0x9E3779B97F4A7C15ULL * (u + 1));
      add_hash_to_registers(row, p, stats::splitmix64_next(state));
      estimate[u] = estimate_registers(row, m);
    }
  });

  auto total_estimate = [&] {
    // The fixed combine tree keeps the sum bit-identical across thread
    // counts.
    return core::parallel_reduce(
        n, kGrain, 0.0,
        [&](std::size_t begin, std::size_t end, double& acc) {
          for (std::size_t u = begin; u < end; ++u) acc += estimate[u];
        },
        [](double& into, const double& from) { into += from; });
  };
  out.reachable_pairs.push_back(total_estimate());  // h = 0: the nodes

  struct PassTally {
    std::uint64_t merges = 0;
    std::uint64_t grown = 0;  // nodes whose registers grew this pass
  };
  std::vector<std::uint8_t> next = current;
  // Every seed row is new, so every node counts as changed before hop 1.
  std::vector<std::uint8_t> changed(n, 1);
  std::vector<std::uint8_t> grew(n, 0);
  for (std::size_t hop = 1; hop <= options.max_hops; ++hop) {
    const PassTally tally = core::parallel_reduce(
        n, kGrain, PassTally{},
        [&](std::size_t begin, std::size_t end, PassTally& acc) {
          for (auto u = static_cast<graph::NodeId>(begin); u < end; ++u) {
            std::uint8_t* mine = next.data() + std::size_t{u} * m;
            bool grown = false;
            auto merge_row = [&](auto scan) {
              graph::NodeId v = 0;
              while (scan.next(v)) {
                if (!changed[v]) continue;
                grown |= merge_registers(
                    mine, current.data() + std::size_t{v} * m, m);
                ++acc.merges;
              }
            };
            merge_row(view.out_scan(u));
            if (options.undirected) merge_row(view.in_scan(u));
            grew[u] = grown;
            if (grown) {
              estimate[u] = estimate_registers(mine, m);
              ++acc.grown;
            }
          }
        },
        [](PassTally& into, const PassTally& from) {
          into.merges += from.merges;
          into.grown += from.grown;
        });
    core::parallel_for(n, kGrain, [&](std::size_t begin, std::size_t end) {
      for (std::size_t u = begin; u < end; ++u) {
        if (grew[u]) {
          std::memcpy(current.data() + u * m, next.data() + u * m, m);
        }
      }
    });
    changed.swap(grew);
    out.register_merges += tally.merges;
    out.iterations = hop;
    out.reachable_pairs.push_back(total_estimate());
    if (tally.grown == 0) break;
  }
  anf_detail::summarize_distances(out);
  return out;
}

}  // namespace gplus::algo
