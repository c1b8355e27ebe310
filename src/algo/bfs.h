// Breadth-first distance engines and sampled path-length estimation
// (§3.3.5, Figure 5, Table 4).
//
// The paper estimates the hop distribution by BFS from k random sources,
// growing k from 2,000 until the distribution stops changing (they stop at
// 10,000), reporting mode 6 / mean 5.9 (directed) and mode 5 / mean 4.7
// (undirected), with diameters 19 and 13 (lower bounds from the sample).
// Every entry is a template over a graph view (algo/graph_view.h), so the
// hops come off a DiGraph or straight off a flat, compressed or mmap'd
// snapshot.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "algo/graph_view.h"
#include "core/parallel.h"
#include "stats/expect.h"
#include "stats/rng.h"
#include "stats/sampling.h"

namespace gplus::algo {

/// Distance value meaning "unreachable".
constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();

/// Estimated hop-count distribution from `sources` BFS roots.
struct PathLengthEstimate {
  /// pmf[h] = fraction of sampled reachable (source, target) pairs at h hops
  /// (h >= 1; unreachable pairs excluded, as in the paper).
  std::vector<double> pmf;
  double mean = 0.0;
  std::uint32_t mode = 0;
  /// Maximum distance observed — a lower bound on the true diameter.
  std::uint32_t diameter_lower_bound = 0;
  /// Fraction of sampled pairs that were reachable.
  double reachable_fraction = 0.0;
  std::size_t sources_used = 0;
};

/// Options for estimate_path_lengths.
struct PathLengthOptions {
  std::size_t initial_sources = 2000;
  std::size_t max_sources = 10000;
  /// Growth factor applied when the distribution has not yet converged.
  double growth = 2.0;
  /// Convergence: max absolute pmf change between rounds.
  double tolerance = 1e-3;
  bool undirected = false;
};

namespace bfs_detail {

/// BFS distances from `source`: out-edges only, or out- then in-edges
/// when `undirected`. A neighbor on both lists is seen twice, which costs
/// one distance check; the deduplicating for_each_union_neighbor merge
/// costs more than that on every row.
template <class View>
std::vector<std::uint32_t> distances(const View& view, graph::NodeId source,
                                     bool undirected) {
  check_node(view, source);
  std::vector<std::uint32_t> dist(view.node_count(), kUnreachable);
  dist[source] = 0;
  // Flat vector as queue: BFS visits each node once, so a growing vector
  // with a read cursor beats std::queue's deque allocations.
  std::vector<graph::NodeId> frontier;
  frontier.reserve(256);
  frontier.push_back(source);
  std::size_t head = 0;
  while (head < frontier.size()) {
    const graph::NodeId u = frontier[head++];
    const std::uint32_t next = dist[u] + 1;
    for (int pass = 0; pass < (undirected ? 2 : 1); ++pass) {
      auto scan = pass == 0 ? view.out_scan(u) : view.in_scan(u);
      graph::NodeId v = 0;
      while (scan.next(v)) {
        if (dist[v] == kUnreachable) {
          dist[v] = next;
          frontier.push_back(v);
        }
      }
    }
  }
  return dist;
}

/// Pair counts by hop over a set of BFS trees.
struct HopAccumulator {
  std::vector<std::uint64_t> counts;  // counts[h] = pairs at distance h >= 1
  std::uint64_t unreachable = 0;

  void absorb(const std::vector<std::uint32_t>& dist) {
    for (std::uint32_t d : dist) {
      if (d == kUnreachable) {
        ++unreachable;
      } else if (d > 0) {
        if (d >= counts.size()) counts.resize(d + 1, 0);
        ++counts[d];
      }
    }
  }

  void merge(const HopAccumulator& other) {
    if (other.counts.size() > counts.size()) {
      counts.resize(other.counts.size(), 0);
    }
    for (std::size_t h = 0; h < other.counts.size(); ++h) {
      counts[h] += other.counts[h];
    }
    unreachable += other.unreachable;
  }

  std::vector<double> pmf() const {
    std::uint64_t total = 0;
    for (auto c : counts) total += c;
    std::vector<double> out(counts.size(), 0.0);
    if (total == 0) return out;
    for (std::size_t h = 0; h < counts.size(); ++h) {
      out[h] = static_cast<double>(counts[h]) / static_cast<double>(total);
    }
    return out;
  }
};

inline double max_abs_diff(const std::vector<double>& a,
                           const std::vector<double>& b) {
  double out = 0.0;
  const std::size_t n = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double av = i < a.size() ? a[i] : 0.0;
    const double bv = i < b.size() ? b[i] : 0.0;
    out = std::max(out, std::abs(av - bv));
  }
  return out;
}

}  // namespace bfs_detail

/// BFS distances from `source` following edge direction. Throws
/// std::invalid_argument when `source` is out of range.
template <class View>
std::vector<std::uint32_t> bfs_distances(const View& view,
                                         graph::NodeId source) {
  return bfs_detail::distances(view, source, false);
}

/// BFS distances treating every edge as undirected.
template <class View>
std::vector<std::uint32_t> bfs_distances_undirected(const View& view,
                                                    graph::NodeId source) {
  return bfs_detail::distances(view, source, true);
}

/// Reproduces the paper's sampling procedure: BFS from a growing random
/// source set until the pmf stabilizes or max_sources is reached. On graphs
/// with fewer nodes than `initial_sources`, every node is used once (exact).
/// The BFS fan-out runs on the shared pool (core/parallel.h); the totals
/// are integer sums, so the estimate is identical for any thread count.
template <class View>
PathLengthEstimate estimate_path_lengths(const View& view,
                                         const PathLengthOptions& options,
                                         stats::Rng& rng) {
  GPLUS_EXPECT(view.node_count() > 0, "graph must be non-empty");
  GPLUS_EXPECT(options.initial_sources > 0, "need at least one source");
  GPLUS_EXPECT(options.growth > 1.0, "growth factor must exceed 1");

  const std::size_t n = view.node_count();
  const std::size_t cap = std::min(options.max_sources, n);

  // Draw the maximal source set once; rounds use growing prefixes so earlier
  // work is never discarded.
  const auto sources = stats::sample_without_replacement(n, cap, rng);

  bfs_detail::HopAccumulator acc;
  std::vector<double> prev_pmf;
  std::size_t used = 0;
  std::size_t round_target = std::min(options.initial_sources, cap);
  // One BFS is a coarse work item; a grain of 4 sources keeps dispatch
  // overhead negligible while load-balancing the heavy sources.
  constexpr std::size_t kGrain = 4;
  while (true) {
    acc.merge(core::parallel_reduce(
        round_target - used, kGrain, bfs_detail::HopAccumulator{},
        [&](std::size_t begin, std::size_t end,
            bfs_detail::HopAccumulator& local) {
          for (std::size_t i = used + begin; i < used + end; ++i) {
            local.absorb(bfs_detail::distances(
                view, static_cast<graph::NodeId>(sources[i]),
                options.undirected));
          }
        },
        [](bfs_detail::HopAccumulator& into,
           const bfs_detail::HopAccumulator& from) { into.merge(from); }));
    used = round_target;
    auto pmf = acc.pmf();
    const bool converged = !prev_pmf.empty() &&
                           bfs_detail::max_abs_diff(pmf, prev_pmf) <=
                               options.tolerance;
    prev_pmf = std::move(pmf);
    if (converged || used >= cap) break;
    round_target = std::min(
        cap, static_cast<std::size_t>(
                 std::ceil(static_cast<double>(round_target) * options.growth)));
  }

  PathLengthEstimate est;
  est.pmf = std::move(prev_pmf);
  est.sources_used = used;
  std::uint64_t reachable_pairs = 0;
  for (auto c : acc.counts) reachable_pairs += c;
  const std::uint64_t sampled_pairs = reachable_pairs + acc.unreachable;
  est.reachable_fraction =
      sampled_pairs == 0 ? 0.0
                         : static_cast<double>(reachable_pairs) /
                               static_cast<double>(sampled_pairs);
  double best_mass = -1.0;
  for (std::size_t h = 1; h < est.pmf.size(); ++h) {
    est.mean += est.pmf[h] * static_cast<double>(h);
    if (est.pmf[h] > best_mass) {
      best_mass = est.pmf[h];
      est.mode = static_cast<std::uint32_t>(h);
    }
  }
  est.diameter_lower_bound =
      acc.counts.empty() ? 0
                         : static_cast<std::uint32_t>(acc.counts.size() - 1);
  return est;
}

/// Double-sweep diameter lower bound: BFS from `start`, then BFS again from
/// the farthest node found. Cheap and usually tight on social graphs.
template <class View>
std::uint32_t double_sweep_diameter(const View& view, graph::NodeId start,
                                    bool undirected) {
  const auto first = bfs_detail::distances(view, start, undirected);
  graph::NodeId far = start;
  std::uint32_t best = 0;
  for (graph::NodeId u = 0; u < view.node_count(); ++u) {
    if (first[u] != kUnreachable && first[u] >= best) {
      best = first[u];
      far = u;
    }
  }
  const auto second = bfs_detail::distances(view, far, undirected);
  std::uint32_t out = best;
  for (std::uint32_t d : second) {
    if (d != kUnreachable) out = std::max(out, d);
  }
  return out;
}

}  // namespace gplus::algo
