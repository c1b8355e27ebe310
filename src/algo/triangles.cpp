#include "algo/triangles.h"

#include "algo/intersect.h"

namespace gplus::algo {

using graph::NodeId;

namespace triangle_detail {

Rows forward_lists(const Rows& nbr) {
  const std::size_t n = nbr.size();
  auto rank_less = [&](NodeId a, NodeId b) {
    if (nbr[a].size() != nbr[b].size()) return nbr[a].size() < nbr[b].size();
    return a < b;
  };
  // Filtering an ascending row keeps it ascending.
  Rows forward(n);
  core::parallel_for(n, kRowGrain, [&](std::size_t begin, std::size_t end) {
    for (auto u = static_cast<NodeId>(begin); u < end; ++u) {
      for (const NodeId v : nbr[u]) {
        if (rank_less(u, v)) forward[u].push_back(v);
      }
    }
  });
  return forward;
}

// Rows are independent, so every per-node phase runs on the shared pool;
// counts are summed with the deterministic chunked reduction, so the
// census is identical for every thread count.
TriangleCensus census_from_rows(const Rows& nbr) {
  const std::size_t n = nbr.size();
  TriangleCensus census;
  if (n == 0) return census;
  const auto sum = [](std::uint64_t& into, const std::uint64_t& from) {
    into += from;
  };

  // Connected triples: sum over nodes of C(deg, 2).
  census.triples = core::parallel_reduce(
      n, kRowGrain, std::uint64_t{0},
      [&](std::size_t begin, std::size_t end, std::uint64_t& acc) {
        for (std::size_t u = begin; u < end; ++u) {
          const auto d = static_cast<std::uint64_t>(nbr[u].size());
          acc += d * (d - 1) / 2;
        }
      },
      sum);

  // Intersection cost varies wildly per node (hubs dominate), so the grain
  // is finer here to keep lanes balanced.
  const Rows forward = forward_lists(nbr);
  census.triangles = core::parallel_reduce(
      n, kRowGrain / 8, std::uint64_t{0},
      [&](std::size_t begin, std::size_t end, std::uint64_t& acc) {
        for (std::size_t u = begin; u < end; ++u) {
          const auto& fu = forward[u];
          for (const NodeId v : fu) acc += intersect_count(fu, forward[v]);
        }
      },
      sum);
  return census;
}

}  // namespace triangle_detail

}  // namespace gplus::algo
