// Degree histograms straight off a SnapshotView (§3.3 at paper scale).
//
// A 35M-node snapshot never materializes a DiGraph. Every §3.3 statistic
// in src/algo is a view template (algo/graph_view.h) that runs on a
// SnapshotView directly — flat or compressed, heap or mmap — so the
// paper's figures come out of the same artifact the request engine
// serves. The (degree, count) histograms live here because they are one
// sequential rank-order pass (on a compressed snapshot each degree is the
// first varint of a row — no decode), where algo's degree templates fill
// a per-node vector in id order.
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

// Serve-named entry points, kept only because the repository benchmark
// (gplus_bench/gplus_bench.cpp) calls them. They forward to the algo
// templates; SnapshotAnfOptions had exactly AnfOptions' fields, so it is
// now an alias. Everything else calls the algo names.
using SnapshotAnfOptions = algo::AnfOptions;

inline algo::SccResult snapshot_scc(const SnapshotView& view) {
  return algo::strongly_connected_components(view);
}

inline algo::NeighborhoodFunction snapshot_anf(
    const SnapshotView& view, const SnapshotAnfOptions& options = {}) {
  return algo::approximate_neighborhood_function(view, options);
}

}  // namespace gplus::serve
