// Graph measurements straight off a SnapshotView (§3.3 at paper scale).
//
// The analysis pipeline computes degree distributions, SCCs and the
// hop distribution (ANF) from an in-RAM DiGraph; a 35M-node snapshot
// never materializes one. These functions run the same measurements over
// the serving view — flat or compressed, heap or mmap — so the paper's
// §3.3 figures come out of the same artifact the request engine serves:
//
//   - degree histograms: one sequential rank-order pass (on a compressed
//     snapshot each degree is the first varint of a row — no decode).
//   - SCC: iterative Tarjan; suspended rows hold a (node, position) pair
//     and re-enter via the skip table, so frame memory stays ~16 bytes
//     per DFS level even on multi-million-deep paths.
//   - ANF: HyperANF with registers in one flat array (n × 2^p bytes per
//     layer) instead of per-node sketch objects — the allocator overhead
//     of 35M small vectors would triple the footprint. Seeding, register
//     merge and estimate are algo/anf's register kernel, and the hop loop
//     and parallel combine tree replicate algo/anf exactly, so on the same
//     graph the estimates are bit-equal to the DiGraph path
//     (tests/test_snapshot_stats.cpp pins this on v2, v3 and mmap views).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "algo/anf.h"
#include "algo/scc.h"
#include "serve/snapshot.h"

namespace gplus::serve {

struct SnapshotDegreeStats {
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t max_out_degree = 0;
  std::uint64_t max_in_degree = 0;
  double mean_out_degree = 0.0;
  /// (degree, node count), ascending by degree.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out_degree_hist;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> in_degree_hist;
};

/// One pass over every row (rank order: sequential on compressed files).
SnapshotDegreeStats snapshot_degree_stats(const SnapshotView& view);

/// Tarjan over the view's out-adjacency. Component numbering may differ
/// from algo::strongly_connected_components; counts and sizes match.
algo::SccResult snapshot_scc(const SnapshotView& view);

struct SnapshotAnfOptions {
  /// 2^p registers/node, p in [4, 16]; paper scale wants 5-6.
  unsigned precision = 7;
  std::size_t max_hops = 64;
  bool undirected = false;
  std::uint64_t seed = 1;
};

/// HyperANF over the view. Same estimator semantics (and, for matching
/// options on the same graph, bit-equal results) as
/// algo::approximate_neighborhood_function. Throws std::invalid_argument
/// when the precision is outside [4, 16].
algo::NeighborhoodFunction snapshot_anf(const SnapshotView& view,
                                        const SnapshotAnfOptions& options = {});

}  // namespace gplus::serve
