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
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "stats/rng.h"

namespace gplus::algo {

// HyperLogLog register kernel over a raw span of m = 2^p registers, shared
// by HyperLogLog below and by the flat-plane HyperANF of
// serve/snapshot_stats, so the two estimators agree bit for bit by
// construction. `p` must be in [4, 16]; every m is therefore a multiple of 16.

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

/// HyperLogLog cardinality sketch (dense, 2^precision registers).
class HyperLogLog {
 public:
  /// `precision` in [4, 16]: 2^p registers, relative error ~1.04/sqrt(2^p).
  explicit HyperLogLog(unsigned precision = 7);

  /// Adds a 64-bit item (pre-hashed inputs recommended).
  void add_hash(std::uint64_t hash) noexcept;

  /// Merges another sketch (register-wise max). Precisions must match.
  /// Returns true when any register changed — HyperANF's convergence test.
  bool merge(const HyperLogLog& other);

  /// Estimated distinct count (with the standard small-range correction).
  double estimate() const noexcept;

  unsigned precision() const noexcept { return precision_; }

 private:
  unsigned precision_;
  std::vector<std::uint8_t> registers_;
};

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

/// Runs HyperANF over the graph.
NeighborhoodFunction approximate_neighborhood_function(const graph::DiGraph& g,
                                                       const AnfOptions& options = {});

}  // namespace gplus::algo
