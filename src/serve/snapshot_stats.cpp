#include "serve/snapshot_stats.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "core/parallel.h"
#include "stats/expect.h"
#include "stats/rng.h"

namespace gplus::serve {

namespace {

std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted_hist(
    const std::unordered_map<std::uint64_t, std::uint64_t>& counts) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out(counts.begin(),
                                                           counts.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

SnapshotDegreeStats snapshot_degree_stats(const SnapshotView& view) {
  SnapshotDegreeStats stats;
  const std::size_t n = view.node_count();
  stats.nodes = n;
  stats.edges = view.edge_count();
  std::unordered_map<std::uint64_t, std::uint64_t> out_counts;
  std::unordered_map<std::uint64_t, std::uint64_t> in_counts;
  std::uint64_t out_sum = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    const graph::NodeId u = view.rank_to_node(r);
    const std::uint64_t od = view.out_degree(u);
    const std::uint64_t id = view.in_degree(u);
    ++out_counts[od];
    ++in_counts[id];
    out_sum += od;
    stats.max_out_degree = std::max(stats.max_out_degree, od);
    stats.max_in_degree = std::max(stats.max_in_degree, id);
  }
  stats.mean_out_degree =
      n == 0 ? 0.0 : static_cast<double>(out_sum) / static_cast<double>(n);
  stats.out_degree_hist = sorted_hist(out_counts);
  stats.in_degree_hist = sorted_hist(in_counts);
  return stats;
}

algo::SccResult snapshot_scc(const SnapshotView& view) {
  const std::size_t n = view.node_count();
  algo::SccResult result;
  result.component.assign(n, 0);
  if (n == 0) return result;

  constexpr std::uint32_t kUnvisited = 0;
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<std::uint8_t> on_stack(n, 0);
  std::vector<graph::NodeId> tarjan_stack;

  // A suspended DFS level: the node and how far into its out-list the
  // scan got. Resuming re-opens the row and block-skips back — constant
  // memory per level regardless of list length.
  struct Frame {
    graph::NodeId node;
    std::uint64_t pos;
  };
  std::vector<Frame> frames;
  std::uint32_t counter = 0;

  for (graph::NodeId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.push_back({root, 0});
    index[root] = lowlink[root] = ++counter;
    tarjan_stack.push_back(root);
    on_stack[root] = 1;
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const graph::NodeId u = frame.node;
      NeighborScan scan = view.out_scan(u);
      scan.skip_to(frame.pos);
      bool descended = false;
      graph::NodeId v = 0;
      while (scan.next(v)) {
        ++frame.pos;
        if (index[v] == kUnvisited) {
          index[v] = lowlink[v] = ++counter;
          tarjan_stack.push_back(v);
          on_stack[v] = 1;
          frames.push_back({v, 0});
          descended = true;
          break;
        }
        if (on_stack[v]) lowlink[u] = std::min(lowlink[u], index[v]);
      }
      if (descended) continue;
      // u's subtree is done: close its component if it is a root.
      if (lowlink[u] == index[u]) {
        const auto comp = static_cast<std::uint32_t>(result.sizes.size());
        std::uint64_t size = 0;
        graph::NodeId w;
        do {
          w = tarjan_stack.back();
          tarjan_stack.pop_back();
          on_stack[w] = 0;
          result.component[w] = comp;
          ++size;
        } while (w != u);
        result.sizes.push_back(size);
      }
      frames.pop_back();
      if (!frames.empty()) {
        const graph::NodeId parent = frames.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
      }
    }
  }
  return result;
}

algo::NeighborhoodFunction snapshot_anf(const SnapshotView& view,
                                        const SnapshotAnfOptions& options) {
  const unsigned p = options.precision;
  GPLUS_EXPECT(p >= 4 && p <= 16, "precision must be in [4,16]");
  const std::size_t n = view.node_count();
  algo::NeighborhoodFunction out;
  if (n == 0) return out;
  const std::size_t m = std::size_t{1} << p;

  // Flat register planes: current and next, n × m bytes each. Seeding,
  // merging and estimating go through algo's register kernel, so results
  // agree bit for bit with the DiGraph path.
  std::vector<std::uint8_t> current(n * m, 0);
  std::vector<std::uint8_t> next;

  constexpr std::size_t kGrain = 1024;
  core::parallel_for(n, kGrain, [&](std::size_t begin, std::size_t end) {
    for (graph::NodeId u = static_cast<graph::NodeId>(begin); u < end; ++u) {
      std::uint64_t state = options.seed ^ (0x9E3779B97F4A7C15ULL * (u + 1));
      algo::add_hash_to_registers(current.data() + std::size_t{u} * m, p,
                                  stats::splitmix64_next(state));
    }
  });

  auto total_estimate = [&] {
    return core::parallel_reduce(
        n, kGrain, 0.0,
        [&](std::size_t begin, std::size_t end, double& acc) {
          for (std::size_t u = begin; u < end; ++u) {
            acc += algo::estimate_registers(current.data() + u * m, m);
          }
        },
        [](double& into, const double& from) { into += from; });
  };
  out.reachable_pairs.push_back(total_estimate());  // h = 0: the nodes

  next = current;
  for (std::size_t hop = 1; hop <= options.max_hops; ++hop) {
    const bool any_change =
        core::parallel_reduce(
            n, kGrain, char{0},
            [&](std::size_t begin, std::size_t end, char& changed) {
              for (graph::NodeId u = static_cast<graph::NodeId>(begin);
                   u < end; ++u) {
                std::uint8_t* mine = next.data() + std::size_t{u} * m;
                auto merge_from = [&](graph::NodeId v) {
                  changed |= algo::merge_registers(
                      mine, current.data() + std::size_t{v} * m, m);
                };
                NeighborScan scan = view.out_scan(u);
                graph::NodeId v = 0;
                while (scan.next(v)) merge_from(v);
                if (options.undirected) {
                  NeighborScan in = view.in_scan(u);
                  while (in.next(v)) merge_from(v);
                }
              }
            },
            [](char& into, const char& from) { into |= from; }) != 0;
    core::parallel_for(n, kGrain, [&](std::size_t begin, std::size_t end) {
      std::memcpy(current.data() + begin * m, next.data() + begin * m,
                  (end - begin) * m);
    });
    out.iterations = hop;
    out.reachable_pairs.push_back(total_estimate());
    if (!any_change) break;
  }

  // Distance distribution and effective diameter: identical post-
  // processing to algo::approximate_neighborhood_function.
  const double final_mass = out.reachable_pairs.back();
  const double base = out.reachable_pairs.front();
  double weighted = 0.0;
  const double pair_mass = std::max(1e-9, final_mass - base);
  for (std::size_t h = 1; h < out.reachable_pairs.size(); ++h) {
    const double at_h = std::max(0.0, out.reachable_pairs[h] -
                                          out.reachable_pairs[h - 1]);
    weighted += at_h * static_cast<double>(h);
  }
  out.mean_distance = weighted / pair_mass;

  const double target = base + 0.9 * (final_mass - base);
  for (std::size_t h = 1; h < out.reachable_pairs.size(); ++h) {
    if (out.reachable_pairs[h] >= target) {
      const double prev = out.reachable_pairs[h - 1];
      const double gain = out.reachable_pairs[h] - prev;
      const double frac = gain > 0 ? (target - prev) / gain : 0.0;
      out.effective_diameter = static_cast<double>(h - 1) + frac;
      break;
    }
  }
  return out;
}

}  // namespace gplus::serve
