#include "algo/reciprocity.h"

#include "algo/intersect.h"
#include "core/parallel.h"

namespace gplus::algo {

using graph::DiGraph;
using graph::NodeId;

namespace {

// |OS(u) ∩ IS(u)| through the shared intersection (algo/intersect.h).
std::size_t mutual_count(const DiGraph& g, NodeId u) {
  return intersect_count(g.out_neighbors(u), g.in_neighbors(u));
}

}  // namespace

std::optional<double> relation_reciprocity(const DiGraph& g, NodeId u) {
  const std::size_t out_deg = g.out_degree(u);
  if (out_deg == 0) return std::nullopt;
  return static_cast<double>(mutual_count(g, u)) / static_cast<double>(out_deg);
}

std::vector<double> relation_reciprocities(const DiGraph& g) {
  const std::size_t n = g.node_count();
  // Per-node RR into fixed slots on the pool, compacted in node order —
  // identical output to the serial loop for any thread count.
  std::vector<std::optional<double>> slots(n);
  core::parallel_for(n, 2048, [&](std::size_t begin, std::size_t end) {
    for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
      slots[u] = relation_reciprocity(g, u);
    }
  });
  std::vector<double> out;
  out.reserve(n);
  for (const auto& rr : slots) {
    if (rr) out.push_back(*rr);
  }
  return out;
}

double global_reciprocity(const DiGraph& g) {
  if (g.edge_count() == 0) return 0.0;
  // Counts each reciprocal pair twice, once per endpoint — i.e. per edge.
  // Integer sum, so the chunked reduction is exact.
  const std::uint64_t mutual_edges = core::parallel_reduce(
      g.node_count(), 2048, std::uint64_t{0},
      [&](std::size_t begin, std::size_t end, std::uint64_t& acc) {
        for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
          acc += mutual_count(g, u);
        }
      },
      [](std::uint64_t& into, const std::uint64_t& from) { into += from; });
  return static_cast<double>(mutual_edges) / static_cast<double>(g.edge_count());
}

std::vector<stats::CurvePoint> reciprocity_cdf(const DiGraph& g) {
  return stats::empirical_cdf(relation_reciprocities(g));
}

}  // namespace gplus::algo
