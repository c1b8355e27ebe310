#include "algo/triangles.h"

namespace gplus::algo {

using graph::NodeId;

namespace triangle_detail {

FlatRows forward_rows(const FlatRows& nbr) {
  const std::size_t n = nbr.node_count();
  const auto rank_less = [&](NodeId a, NodeId b) {
    if (nbr.degree[a] != nbr.degree[b]) return nbr.degree[a] < nbr.degree[b];
    return a < b;
  };
  // Count each forward row, lay the rows out exactly, then fill them;
  // filtering an ascending row keeps it ascending.
  FlatRows forward;
  forward.degree.resize(n);
  core::parallel_for(n, kRowGrain, [&](std::size_t begin, std::size_t end) {
    for (auto u = static_cast<NodeId>(begin); u < end; ++u) {
      std::uint32_t count = 0;
      for (const NodeId v : nbr.row(u)) count += rank_less(u, v) ? 1 : 0;
      forward.degree[u] = count;
    }
  });
  forward.lay_out(n, [&](NodeId u) { return forward.degree[u]; });
  core::parallel_for(n, kRowGrain, [&](std::size_t begin, std::size_t end) {
    for (auto u = static_cast<NodeId>(begin); u < end; ++u) {
      const auto row = nbr.row(u);
      const auto codes = nbr.codes(u);
      std::size_t at = forward.offset[u];
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (!rank_less(u, row[i])) continue;
        forward.nbr[at] = row[i];
        forward.code[at] = codes[i];
        ++at;
      }
    }
  });
  return forward;
}

// Rows are independent, so every per-node phase runs on the shared pool;
// counts are summed with the deterministic chunked reduction, so the
// census is identical for every thread count.
TriangleCensus census_from_rows(const FlatRows& nbr) {
  const std::size_t n = nbr.node_count();
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
          const std::uint64_t d = nbr.degree[u];
          acc += d * (d - 1) / 2;
        }
      },
      sum);

  census.triangles = reduce_triangles(
      forward_rows(nbr), std::uint64_t{0},
      [](std::uint64_t& acc, std::uint8_t, std::uint8_t, std::uint8_t) {
        ++acc;
      },
      sum);
  return census;
}

}  // namespace triangle_detail

}  // namespace gplus::algo
