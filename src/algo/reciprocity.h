// Reciprocity metrics (§3.3.2, Figure 4a, Table 4).
//
// Relation Reciprocity of node u:  RR(u) = |OS(u) ∩ IS(u)| / |OS(u)|,
// where OS(u) are u's out-neighbors and IS(u) its in-neighbors. Global
// reciprocity is the fraction of directed edges whose reverse also exists
// (32% for Google+, vs 22.1% reported for Twitter). Every entry is a
// template over a graph view (algo/graph_view.h), so the 32% comes off a
// DiGraph or straight off a flat, compressed or mmap'd snapshot.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "algo/graph_view.h"
#include "algo/intersect.h"
#include "core/parallel.h"
#include "stats/distribution.h"

namespace gplus::algo {

namespace reciprocity_detail {

/// |OS(u) ∩ IS(u)| through the shared intersection (algo/intersect.h).
template <class View>
std::uint64_t mutual_count(const View& view, graph::NodeId u,
                           std::vector<graph::NodeId>& out_scratch,
                           std::vector<graph::NodeId>& in_scratch) {
  return intersect_count(out_row(view, u, out_scratch),
                         in_row(view, u, in_scratch));
}

template <class View>
std::optional<double> relation_reciprocity(
    const View& view, graph::NodeId u, std::vector<graph::NodeId>& out_scratch,
    std::vector<graph::NodeId>& in_scratch) {
  const std::uint64_t out_deg = view.out_degree(u);
  if (out_deg == 0) return std::nullopt;
  return static_cast<double>(mutual_count(view, u, out_scratch, in_scratch)) /
         static_cast<double>(out_deg);
}

}  // namespace reciprocity_detail

/// RR(u), or nullopt when u has no out-neighbors (RR undefined). Throws
/// std::invalid_argument when `u` is out of range.
template <class View>
std::optional<double> relation_reciprocity(const View& view, graph::NodeId u) {
  check_node(view, u);
  std::vector<graph::NodeId> out_scratch;
  std::vector<graph::NodeId> in_scratch;
  return reciprocity_detail::relation_reciprocity(view, u, out_scratch,
                                                  in_scratch);
}

/// RR for every node with out-degree > 0, in ascending node-id order of
/// the qualifying nodes.
template <class View>
std::vector<double> relation_reciprocities(const View& view) {
  const std::size_t n = view.node_count();
  // Per-node RR into fixed slots on the pool, compacted in node order —
  // identical output to the serial loop for any thread count.
  std::vector<std::optional<double>> slots(n);
  core::parallel_for(n, 2048, [&](std::size_t begin, std::size_t end) {
    std::vector<graph::NodeId> out_scratch;
    std::vector<graph::NodeId> in_scratch;
    for (auto u = static_cast<graph::NodeId>(begin); u < end; ++u) {
      slots[u] = reciprocity_detail::relation_reciprocity(view, u, out_scratch,
                                                          in_scratch);
    }
  });
  std::vector<double> out;
  out.reserve(n);
  for (const auto& rr : slots) {
    if (rr) out.push_back(*rr);
  }
  return out;
}

/// Fraction of directed edges (u, v) with (v, u) also present; 0 for an
/// edgeless graph.
template <class View>
double global_reciprocity(const View& view) {
  if (view.edge_count() == 0) return 0.0;
  // Counts each reciprocal pair twice, once per endpoint — i.e. per edge.
  // Integer sum, so the chunked reduction is exact.
  const std::uint64_t mutual_edges = core::parallel_reduce(
      view.node_count(), 2048, std::uint64_t{0},
      [&](std::size_t begin, std::size_t end, std::uint64_t& acc) {
        std::vector<graph::NodeId> out_scratch;
        std::vector<graph::NodeId> in_scratch;
        for (auto u = static_cast<graph::NodeId>(begin); u < end; ++u) {
          acc += reciprocity_detail::mutual_count(view, u, out_scratch,
                                                  in_scratch);
        }
      },
      [](std::uint64_t& into, const std::uint64_t& from) { into += from; });
  return static_cast<double>(mutual_edges) /
         static_cast<double>(view.edge_count());
}

/// Empirical CDF of RR over qualifying nodes — the Figure 4(a) series.
template <class View>
std::vector<stats::CurvePoint> reciprocity_cdf(const View& view) {
  return stats::empirical_cdf(relation_reciprocities(view));
}

}  // namespace gplus::algo
