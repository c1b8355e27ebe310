// Directed triad motif census (DESIGN.md §16).
//
// The paper's §4 clustering and reciprocity numbers are aggregates of a
// finer-grained quantity: the census of all 16 directed 3-node
// isomorphism classes (Holland-Leinhardt M-A-N notation: 003 … 300).
// Schiöberg et al. track exactly these classes over Google+ snapshots;
// this module computes them exactly at dataset scale and by seeded wedge
// sampling at paper scale.
//
// Encoding: a triad over local nodes {0, 1, 2} is a 6-bit arc mask
// (bit 0: 0→1, bit 1: 1→0, bit 2: 0→2, bit 3: 2→0, bit 4: 1→2,
// bit 5: 2→1); a dyad is a 2-bit direction code (1 = out-only,
// 2 = in-only, 3 = mutual — Gong et al.'s reciprocal/parasocial split
// kept first-class). The 64 masks collapse onto the 16 classes through a
// canonical table built once by minimizing over the 6 node permutations.
//
// The exact census never enumerates triples: per-center dyad-code pair
// counts give the open-wedge classes, the triangle census's marked walk
// over its flat forward rows (algo/triangles.h) classifies every closed
// triad from the codes stored beside each neighbor and repairs the wedge
// overcounts, and the two dyadic classes follow from degree arithmetic.
// Rows come from the one out∪in walk (for_each_union_neighbor,
// algo/graph_view.h). Everything runs on the deterministic parallel
// runtime (core/parallel.h), so counts are identical at any GPLUS_THREADS
// and on every host.
//
// Census entry points are templated over a graph view (algo/graph_view.h)
// so the same code runs on an in-RAM `graph::DiGraph` and on every serving
// snapshot format through `serve::SnapshotView`.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "algo/graph_view.h"
#include "algo/triangles.h"
#include "core/parallel.h"
#include "graph/digraph.h"
#include "stats/expect.h"
#include "stats/rng.h"

namespace gplus::algo {

/// The 16 directed triad isomorphism classes in standard M-A-N order
/// (number of Mutual / Asymmetric / Null dyads, plus orientation letter).
enum class TriadClass : std::uint8_t {
  k003 = 0,  ///< empty
  k012,      ///< single arc
  k102,      ///< single mutual dyad
  k021D,     ///< out-star  A←B→C
  k021U,     ///< in-star   A→B←C
  k021C,     ///< chain     A→B→C
  k111D,     ///< A↔B←C
  k111U,     ///< A↔B→C
  k030T,     ///< transitive triangle
  k030C,     ///< cyclic triangle
  k201,      ///< A↔B↔C
  k120D,     ///< A←B→C, A↔C
  k120U,     ///< A→B←C, A↔C
  k120C,     ///< A→B→C, A↔C
  k210,      ///< one asymmetric + two mutual dyads
  k300,      ///< complete mutual triangle
};

inline constexpr std::size_t kTriadClassCount = 16;

/// Largest node count the exact census accepts: C(n, 3) must fit in a
/// uint64 (the empty-class count is derived by subtraction).
inline constexpr std::size_t kTriadCensusMaxNodes = 4'800'000;

/// Display name in M-A-N notation ("003" … "300").
std::string_view triad_class_name(TriadClass cls) noexcept;

/// Collapses a 6-bit arc mask (bit layout above) onto its isomorphism
/// class. Total on [0, 64); exposed for tests and the sampling path.
TriadClass triad_class_of_mask(unsigned mask) noexcept;

/// Exact counts of every triad class; entries sum to C(n, 3).
struct TriadCensus {
  std::array<std::uint64_t, kTriadClassCount> counts{};

  std::uint64_t operator[](TriadClass cls) const noexcept {
    return counts[static_cast<std::size_t>(cls)];
  }

  /// Σ over all classes == C(n, 3).
  std::uint64_t total() const noexcept;
  /// Triads whose three dyads are all linked (030T … 300).
  std::uint64_t closed() const noexcept;
  /// Triads with exactly two linked dyads (the open-wedge classes).
  std::uint64_t open_wedges() const noexcept;
  /// Fraction of wedges that sit inside a closed triad:
  /// 3·closed / (3·closed + open); 0 when the graph has no wedges.
  double wedge_closure() const noexcept;

  friend bool operator==(const TriadCensus&, const TriadCensus&) = default;
};

/// True for the seven all-dyads-linked classes.
bool triad_class_closed(TriadClass cls) noexcept;

namespace motif_detail {

/// Census core over prebuilt union rows (algo/triangles.h). Throws
/// std::invalid_argument when node count exceeds kTriadCensusMaxNodes.
TriadCensus census_from_union(const triangle_detail::FlatRows& adj);

/// Per-node row grain of the census's row passes and of the sampler
/// (matches the other per-row graph kernels).
inline constexpr std::size_t kMotifRowGrain = 2048;

/// Mixes (seed, index) into an independent per-sample RNG seed, so the
/// sample set is a pure function of the config — independent of
/// evaluation order and thread count.
std::uint64_t fork_sample_seed(std::uint64_t seed,
                               std::uint64_t index) noexcept;

}  // namespace motif_detail

/// Exact census of any view (DiGraph, flat v2, compressed v3, mmap).
template <class View>
TriadCensus triad_census(const View& view) {
  return motif_detail::census_from_union(triangle_detail::union_rows(view));
}

/// Forward kept only because the repository benchmark
/// (gplus_bench/gplus_bench.cpp) calls this name; everything else calls
/// triad_census.
template <class View>
TriadCensus triad_census_of_view(const View& view) {
  return triad_census(view);
}

/// Wedge-sampling estimator knobs.
struct TriadSampleConfig {
  /// Wedges drawn (with replacement) from the Σ C(d_u, 2) population over
  /// union degrees.
  std::uint64_t samples = 200'000;
  /// Every sample's RNG is forked from (seed, sample index), so the
  /// estimate is reproducible bit-for-bit at any thread count.
  std::uint64_t seed = 7;
};

/// Sampling estimate of the 13 connected-class counts. The three
/// disconnected classes (003/012/102) contain no wedge and are not
/// estimated (their slots stay 0).
struct SampledTriadCensus {
  /// Σ C(d_u, 2) over union degrees — the exact wedge population.
  std::uint64_t total_wedges = 0;
  /// Wedges actually drawn (== config.samples unless the graph is empty).
  std::uint64_t sampled = 0;
  /// Share of drawn wedges whose far pair is linked; converges on
  /// TriadCensus::wedge_closure().
  double closed_fraction = 0.0;
  /// Per-class share of drawn wedges.
  std::array<double, kTriadClassCount> wedge_share{};
  /// Estimated triad counts: share·W for open-wedge classes, share·W/3
  /// for closed classes (each closed triad holds three wedges).
  std::array<double, kTriadClassCount> estimated_counts{};
};

/// Seeded wedge-sampling census estimate over any view. Centers are drawn
/// proportional to C(d_u, 2); the far-pair arcs are probed with
/// `has_edge`, which on a v3 snapshot exercises the compressed
/// `NeighborScan` path end to end.
template <class View>
SampledTriadCensus sample_triad_census(const View& view,
                                       const TriadSampleConfig& config) {
  const std::size_t n = view.node_count();
  SampledTriadCensus result;

  // Union degrees (distinct neighbors, self excluded) and the wedge CDF.
  std::vector<std::uint64_t> degree(n, 0);
  core::parallel_for(
      n, motif_detail::kMotifRowGrain,
      [&](std::size_t begin, std::size_t end) {
        for (auto u = static_cast<graph::NodeId>(begin); u < end; ++u) {
          for_each_union_neighbor(
              view, u, [&](graph::NodeId, std::uint8_t) { ++degree[u]; });
        }
      });
  std::vector<std::uint64_t> cumulative(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint64_t d = degree[u];
    cumulative[u + 1] = cumulative[u] + d * (d - 1) / 2;
  }
  result.total_wedges = cumulative[n];
  if (result.total_wedges == 0 || config.samples == 0) return result;

  // Draw every wedge up front: center ∝ C(d, 2), then an unordered
  // neighbor pair. Each sample owns a forked RNG, so the draw is a pure
  // function of (seed, index).
  struct Wedge {
    graph::NodeId center;
    std::uint64_t first;
    std::uint64_t second;
  };
  std::vector<Wedge> wedges(config.samples);
  core::parallel_for(
      config.samples, 4096, [&](std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          stats::Rng rng(motif_detail::fork_sample_seed(config.seed, s));
          const std::uint64_t r = rng.next_below(result.total_wedges);
          const auto it = std::upper_bound(cumulative.begin() + 1,
                                           cumulative.end(), r);
          const auto u = static_cast<graph::NodeId>(
              (it - cumulative.begin()) - 1);
          const std::uint64_t d = degree[u];
          std::uint64_t i = rng.next_below(d);
          std::uint64_t j = rng.next_below(d - 1);
          if (j >= i) ++j;
          wedges[s] = {u, i, j};
        }
      });

  // Group samples by center so each sampled row is materialized once
  // (hubs dominate the wedge mass and would otherwise be re-decoded per
  // sample on a compressed view).
  std::vector<std::uint32_t> order(config.samples);
  for (std::uint32_t s = 0; s < config.samples; ++s) order[s] = s;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (wedges[a].center != wedges[b].center)
                return wedges[a].center < wedges[b].center;
              return a < b;
            });
  struct Group {
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Group> groups;
  for (std::size_t at = 0; at < order.size();) {
    std::size_t stop = at + 1;
    while (stop < order.size() &&
           wedges[order[stop]].center == wedges[order[at]].center) {
      ++stop;
    }
    groups.push_back({at, stop});
    at = stop;
  }

  // Classify each wedge; per-sample slots keep writes disjoint.
  std::vector<std::uint8_t> sample_class(config.samples);
  core::parallel_for(groups.size(), 16, [&](std::size_t begin,
                                            std::size_t end) {
    std::vector<graph::NodeId> nbr;
    std::vector<std::uint8_t> code;
    for (std::size_t gi = begin; gi < end; ++gi) {
      const graph::NodeId u = wedges[order[groups[gi].begin]].center;
      nbr.clear();
      code.clear();
      for_each_union_neighbor(view, u, [&](graph::NodeId v, std::uint8_t c) {
        nbr.push_back(v);
        code.push_back(c);
      });
      for (std::size_t at = groups[gi].begin; at < groups[gi].end; ++at) {
        const Wedge& wedge = wedges[order[at]];
        const graph::NodeId a = nbr[wedge.first];
        const graph::NodeId b = nbr[wedge.second];
        unsigned mask = code[wedge.first] |
                        (static_cast<unsigned>(code[wedge.second]) << 2);
        if (view.has_edge(a, b)) mask |= 1U << 4;
        if (view.has_edge(b, a)) mask |= 1U << 5;
        sample_class[order[at]] =
            static_cast<std::uint8_t>(triad_class_of_mask(mask));
      }
    }
  });

  // Serial aggregation in sample order: identical doubles on every run.
  std::array<std::uint64_t, kTriadClassCount> hits{};
  std::uint64_t closed_hits = 0;
  for (std::size_t s = 0; s < config.samples; ++s) {
    const auto cls = static_cast<TriadClass>(sample_class[s]);
    ++hits[sample_class[s]];
    if (triad_class_closed(cls)) ++closed_hits;
  }
  result.sampled = config.samples;
  result.closed_fraction = static_cast<double>(closed_hits) /
                           static_cast<double>(config.samples);
  const auto population = static_cast<double>(result.total_wedges);
  for (std::size_t k = 0; k < kTriadClassCount; ++k) {
    const double share = static_cast<double>(hits[k]) /
                         static_cast<double>(config.samples);
    result.wedge_share[k] = share;
    const bool closed = triad_class_closed(static_cast<TriadClass>(k));
    result.estimated_counts[k] = share * population / (closed ? 3.0 : 1.0);
  }
  return result;
}

}  // namespace gplus::algo
