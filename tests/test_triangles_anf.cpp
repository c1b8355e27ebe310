#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "algo/anf.h"
#include "algo/bfs.h"
#include "algo/triangles.h"
#include "graph/builder.h"
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
  for (int i = 0; i < 2000; ++i) hashes.push_back(stats::splitmix64_next(state));
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
}

}  // namespace
}  // namespace gplus::algo
