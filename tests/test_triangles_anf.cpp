#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "algo/anf.h"
#include "algo/bfs.h"
#include "algo/triangles.h"
#include "core/dataset.h"
#include "core/parallel.h"
#include "graph/builder.h"
#include "serve/snapshot.h"
#include "stats/rng.h"

namespace gplus::algo {
namespace {

using graph::DiGraph;
using graph::GraphBuilder;
using graph::NodeId;

TEST(Triangles, EmptyAndEdgelessGraphs) {
  EXPECT_EQ(count_triangles(DiGraph{}).triangles, 0u);
  GraphBuilder b(5);
  const auto census = count_triangles(b.build());
  EXPECT_EQ(census.triangles, 0u);
  EXPECT_EQ(census.triples, 0u);
  EXPECT_DOUBLE_EQ(census.transitivity(), 0.0);
}

TEST(Triangles, SingleDirectedTriangle) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  const auto census = count_triangles(b.build());
  EXPECT_EQ(census.triangles, 1u);
  EXPECT_EQ(census.triples, 3u);
  EXPECT_DOUBLE_EQ(census.transitivity(), 1.0);
}

TEST(Triangles, ReciprocalEdgesDoNotDoubleCount) {
  GraphBuilder b;
  b.add_reciprocal_edge(0, 1);
  b.add_reciprocal_edge(1, 2);
  b.add_reciprocal_edge(2, 0);
  const auto census = count_triangles(b.build());
  EXPECT_EQ(census.triangles, 1u);
  EXPECT_DOUBLE_EQ(census.transitivity(), 1.0);
}

TEST(Triangles, StarHasTriplesButNoTriangles) {
  GraphBuilder b;
  for (NodeId v = 1; v <= 6; ++v) b.add_edge(0, v);
  const auto census = count_triangles(b.build());
  EXPECT_EQ(census.triangles, 0u);
  EXPECT_EQ(census.triples, 15u);  // C(6,2) at the hub
  EXPECT_DOUBLE_EQ(census.transitivity(), 0.0);
}

TEST(Triangles, CompleteGraphCounts) {
  constexpr NodeId kN = 7;
  GraphBuilder b;
  for (NodeId u = 0; u < kN; ++u) {
    for (NodeId v = 0; v < kN; ++v) {
      if (u != v) b.add_edge(u, v);
    }
  }
  const auto census = count_triangles(b.build());
  EXPECT_EQ(census.triangles, 35u);  // C(7,3)
  EXPECT_DOUBLE_EQ(census.transitivity(), 1.0);
}

TEST(Triangles, MatchesBruteForceOnRandomGraph) {
  GraphBuilder b;
  stats::Rng rng(3);
  constexpr NodeId kN = 60;
  for (int i = 0; i < 500; ++i) {
    b.add_edge(static_cast<NodeId>(rng.next_below(kN)),
               static_cast<NodeId>(rng.next_below(kN)));
  }
  const auto g = b.build();
  // Brute force over node triples on the undirected view.
  auto connected = [&](NodeId a, NodeId c) {
    return a != c && (g.has_edge(a, c) || g.has_edge(c, a));
  };
  std::uint64_t brute = 0;
  for (NodeId a = 0; a < kN; ++a) {
    for (NodeId bn = a + 1; bn < kN; ++bn) {
      if (!connected(a, bn)) continue;
      for (NodeId c = bn + 1; c < kN; ++c) {
        brute += connected(a, c) && connected(bn, c);
      }
    }
  }
  EXPECT_EQ(count_triangles(g).triangles, brute);
}

// One HyperLogLog sketch: a span of 2^p registers driven by the kernel.
using Registers = std::vector<std::uint8_t>;

Registers make_registers(unsigned p) { return Registers(std::size_t{1} << p); }

double estimate(const Registers& regs) {
  return estimate_registers(regs.data(), regs.size());
}

TEST(HyperLogLog, EstimatesCardinalityWithinError) {
  Registers sketch = make_registers(10);  // ~3% error
  std::uint64_t state = 42;
  constexpr int kItems = 50'000;
  for (int i = 0; i < kItems; ++i) {
    add_hash_to_registers(sketch.data(), 10, stats::splitmix64_next(state));
  }
  EXPECT_NEAR(estimate(sketch), kItems, kItems * 0.1);
}

TEST(HyperLogLog, SmallRangeExact) {
  Registers sketch = make_registers(8);
  std::uint64_t state = 7;
  for (int i = 0; i < 10; ++i) {
    add_hash_to_registers(sketch.data(), 8, stats::splitmix64_next(state));
  }
  EXPECT_NEAR(estimate(sketch), 10.0, 2.0);
}

TEST(HyperLogLog, MergeIsUnion) {
  Registers a = make_registers(9);
  Registers b = make_registers(9);
  std::uint64_t state = 1;
  std::vector<std::uint64_t> hashes;
  for (int i = 0; i < 2000; ++i) {
    hashes.push_back(stats::splitmix64_next(state));
  }
  for (int i = 0; i < 1000; ++i) {
    add_hash_to_registers(a.data(), 9, hashes[i]);
  }
  for (int i = 500; i < 2000; ++i) {
    add_hash_to_registers(b.data(), 9, hashes[i]);
  }
  merge_registers(a.data(), b.data(), a.size());
  EXPECT_NEAR(estimate(a), 2000.0, 200.0);
  // Merging an identical sketch changes nothing.
  const Registers copy = a;
  EXPECT_FALSE(merge_registers(a.data(), copy.data(), a.size()));
}

TEST(Anf, ExactOnSmallDirectedPath) {
  // Path 0 -> 1 -> 2 -> 3: reachable pairs at h: n + cumulative counts.
  GraphBuilder b;
  for (NodeId u = 0; u + 1 < 4; ++u) b.add_edge(u, u + 1);
  AnfOptions options;
  options.precision = 12;  // effectively exact at this size
  const auto anf = approximate_neighborhood_function(b.build(), options);
  ASSERT_GE(anf.reachable_pairs.size(), 4u);
  EXPECT_NEAR(anf.reachable_pairs[0], 4.0, 0.2);   // self only
  EXPECT_NEAR(anf.reachable_pairs[1], 7.0, 0.3);   // +3 pairs at dist 1
  EXPECT_NEAR(anf.reachable_pairs[2], 9.0, 0.4);   // +2 at dist 2
  EXPECT_NEAR(anf.reachable_pairs[3], 10.0, 0.5);  // +1 at dist 3
  // Mean distance: (3*1 + 2*2 + 1*3) / 6 = 10/6.
  EXPECT_NEAR(anf.mean_distance, 10.0 / 6.0, 0.15);
}

TEST(Anf, ConvergesAndStops) {
  GraphBuilder b;
  for (NodeId u = 0; u < 10; ++u) b.add_edge(u, (u + 1) % 10);
  const auto anf = approximate_neighborhood_function(b.build());
  // A directed 10-ring has diameter 9: needs exactly 9 growth passes plus
  // one fixed-point confirmation.
  EXPECT_GE(anf.iterations, 9u);
  EXPECT_LE(anf.iterations, 11u);
}

TEST(Anf, MatchesSampledEstimatorOnRandomGraph) {
  GraphBuilder b;
  stats::Rng rng(9);
  constexpr NodeId kN = 2000;
  for (int i = 0; i < 16'000; ++i) {
    b.add_edge(static_cast<NodeId>(rng.next_below(kN)),
               static_cast<NodeId>(rng.next_below(kN)));
  }
  const auto g = b.build();

  AnfOptions options;
  options.precision = 9;
  const auto anf = approximate_neighborhood_function(g, options);

  PathLengthOptions exact_opt;
  exact_opt.initial_sources = kN;  // exact: all sources
  exact_opt.max_sources = kN;
  stats::Rng rng2(10);
  const auto sampled = estimate_path_lengths(g, exact_opt, rng2);

  EXPECT_NEAR(anf.mean_distance, sampled.mean, sampled.mean * 0.1);
}

TEST(Anf, UndirectedViewShortensDistances) {
  GraphBuilder b;
  for (NodeId u = 0; u + 1 < 30; ++u) b.add_edge(u, u + 1);
  AnfOptions directed;
  directed.precision = 11;
  AnfOptions undirected = directed;
  undirected.undirected = true;
  const auto d = approximate_neighborhood_function(b.build(), directed);
  const auto u = approximate_neighborhood_function(b.build(), undirected);
  // Undirected view reaches ~2x the pairs (both directions).
  EXPECT_GT(u.reachable_pairs.back(), 1.5 * d.reachable_pairs.back());
}

TEST(Anf, EmptyGraph) {
  const auto anf = approximate_neighborhood_function(DiGraph{});
  EXPECT_TRUE(anf.reachable_pairs.empty());
  EXPECT_EQ(anf.iterations, 0u);
  EXPECT_EQ(anf.register_merges, 0u);
}

// The full-merge HyperANF loop the systolic driver replaced: every pass
// merges every neighbour, copies the whole register plane and
// re-estimates every node. It is the oracle for the systolic driver and
// lives only here.
template <class View>
NeighborhoodFunction full_merge_anf(const View& view,
                                    const AnfOptions& options) {
  const unsigned p = options.precision;
  const std::size_t n = view.node_count();
  NeighborhoodFunction out;
  if (n == 0) return out;
  const std::size_t m = std::size_t{1} << p;
  std::vector<std::uint8_t> current(n * m, 0);
  constexpr std::size_t kGrain = 1024;
  core::parallel_for(n, kGrain, [&](std::size_t begin, std::size_t end) {
    for (auto u = static_cast<NodeId>(begin); u < end; ++u) {
      std::uint64_t state = options.seed ^ (0x9E3779B97F4A7C15ULL * (u + 1));
      add_hash_to_registers(current.data() + std::size_t{u} * m, p,
                            stats::splitmix64_next(state));
    }
  });
  auto total_estimate = [&] {
    return core::parallel_reduce(
        n, kGrain, 0.0,
        [&](std::size_t begin, std::size_t end, double& acc) {
          for (std::size_t u = begin; u < end; ++u) {
            acc += estimate_registers(current.data() + u * m, m);
          }
        },
        [](double& into, const double& from) { into += from; });
  };
  out.reachable_pairs.push_back(total_estimate());
  std::vector<std::uint8_t> next = current;
  for (std::size_t hop = 1; hop <= options.max_hops; ++hop) {
    const bool any_change =
        core::parallel_reduce(
            n, kGrain, char{0},
            [&](std::size_t begin, std::size_t end, char& changed) {
              for (auto u = static_cast<NodeId>(begin); u < end; ++u) {
                std::uint8_t* mine = next.data() + std::size_t{u} * m;
                auto merge_row = [&](auto scan) {
                  NodeId v = 0;
                  while (scan.next(v)) {
                    changed |= merge_registers(
                        mine, current.data() + std::size_t{v} * m, m);
                  }
                };
                merge_row(view.out_scan(u));
                if (options.undirected) merge_row(view.in_scan(u));
              }
            },
            [](char& into, const char& from) { into |= from; }) != 0;
    std::memcpy(current.data(), next.data(), n * m);
    out.iterations = hop;
    out.register_merges +=
        view.edge_count() * (options.undirected ? 2 : 1);
    out.reachable_pairs.push_back(total_estimate());
    if (!any_change) break;
  }
  anf_detail::summarize_distances(out);
  return out;
}

// A 60-node directed chain (59 hops end to end), random arcs among the
// next 400 nodes, and 40 isolated nodes at the end.
core::Dataset chain_and_random_dataset(std::uint64_t seed) {
  constexpr NodeId kChain = 60;
  constexpr NodeId kRandom = 400;
  constexpr NodeId kIsolated = 40;
  GraphBuilder b(kChain + kRandom + kIsolated);
  for (NodeId u = 0; u + 1 < kChain; ++u) b.add_edge(u, u + 1);
  stats::Rng rng(seed);
  for (int i = 0; i < 1'600; ++i) {
    b.add_edge(kChain + static_cast<NodeId>(rng.next_below(kRandom)),
               kChain + static_cast<NodeId>(rng.next_below(kRandom)));
  }
  core::Dataset out;
  out.net.graph = b.build();
  out.profiles.resize(out.net.graph.node_count());
  return out;
}

// The systolic driver skips merges from neighbours that did not change on
// the previous pass. That is exact: it matches the full-merge loop on
// every reachable_pairs double and on the pass count, with and without
// the max_hops cap, on a DiGraph and on a v3 snapshot, at any lane count.
TEST(Anf, SystolicPassesMatchFullMergeOracle) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const core::Dataset dataset = chain_and_random_dataset(seed);
    const DiGraph& g = dataset.net.graph;
    serve::SnapshotOptions snapshot_options;
    snapshot_options.version = serve::kSnapshotVersion3;
    const serve::SnapshotBuffer v3 =
        serve::build_snapshot(dataset, snapshot_options);
    const serve::SnapshotView view(v3.bytes());
    ASSERT_TRUE(view.adjacency_compressed());
    for (const bool undirected : {false, true}) {
      for (const unsigned p : {4u, 7u, 10u}) {
        for (const std::size_t max_hops : {std::size_t{20}, std::size_t{64}}) {
          AnfOptions options;
          options.precision = p;
          options.undirected = undirected;
          options.max_hops = max_hops;
          options.seed = seed;
          const auto want = full_merge_anf(g, options);
          // The chain needs 59 passes, so the cap of 20 is hit; at 64 the
          // loop stops on its own.
          if (max_hops == 20) {
            ASSERT_EQ(want.iterations, 20u);
          } else {
            ASSERT_LT(want.iterations, 64u);
          }
          for (const std::size_t lanes : {std::size_t{0}, std::size_t{1}}) {
            core::set_thread_count(lanes);
            const auto check = [&](const NeighborhoodFunction& got,
                                   const char* label) {
              SCOPED_TRACE(std::string(label) + " seed " +
                           std::to_string(seed) +
                           (undirected ? " undirected" : " directed") +
                           " p=" + std::to_string(p) + " max_hops " +
                           std::to_string(max_hops) + " lanes " +
                           std::to_string(core::thread_count()));
              EXPECT_EQ(got.iterations, want.iterations);
              ASSERT_EQ(got.reachable_pairs.size(),
                        want.reachable_pairs.size());
              for (std::size_t h = 0; h < want.reachable_pairs.size(); ++h) {
                EXPECT_EQ(got.reachable_pairs[h], want.reachable_pairs[h])
                    << "hop " << h;
              }
              EXPECT_EQ(got.mean_distance, want.mean_distance);
              EXPECT_EQ(got.effective_diameter, want.effective_diameter);
              EXPECT_LE(got.register_merges, want.register_merges);
            };
            check(approximate_neighborhood_function(g, options), "DiGraph");
            check(approximate_neighborhood_function(view, options), "v3");
          }
          core::set_thread_count(0);
        }
      }
    }
  }
}

// register_merges is an exact count: the same at one lane and at four,
// equal to arcs (× 2 undirected) on the first pass, and never more than
// the full-merge loop's iterations × arcs (× 2).
TEST(Anf, RegisterMergesAreExactAndBoundedByFullMerge) {
  const core::Dataset dataset = chain_and_random_dataset(7);
  const DiGraph& g = dataset.net.graph;
  for (const bool undirected : {false, true}) {
    SCOPED_TRACE(undirected ? "undirected" : "directed");
    AnfOptions options;
    options.undirected = undirected;
    const std::uint64_t per_pass = g.edge_count() * (undirected ? 2 : 1);

    AnfOptions one_pass = options;
    one_pass.max_hops = 1;
    EXPECT_EQ(approximate_neighborhood_function(g, one_pass).register_merges,
              per_pass);

    core::set_thread_count(1);
    const auto serial = approximate_neighborhood_function(g, options);
    core::set_thread_count(4);
    const auto pooled = approximate_neighborhood_function(g, options);
    core::set_thread_count(0);
    EXPECT_EQ(serial.register_merges, pooled.register_merges);
    EXPECT_EQ(serial.iterations, pooled.iterations);
    EXPECT_LE(serial.register_merges, serial.iterations * per_pass);
    // The chain keeps only a few nodes changing on late passes, so the
    // systolic loop does strictly less work than the full merge.
    EXPECT_LT(serial.register_merges, serial.iterations * per_pass);
  }
}

}  // namespace
}  // namespace gplus::algo
