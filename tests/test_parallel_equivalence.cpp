// Serial-equivalence gauntlet for the kernels ported onto the shared
// parallel runtime (core/parallel.h): every kernel must return the same
// value at 1, 2, 7 and hardware_concurrency lanes — exactly for integer
// counts, EXPECT_DOUBLE_EQ for the fixed-order floating-point reductions.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "algo/anf.h"
#include "algo/bfs.h"
#include "algo/clustering.h"
#include "algo/degrees.h"
#include "algo/reciprocity.h"
#include "algo/triangles.h"
#include "core/parallel.h"
#include "graph/builder.h"
#include "stats/rng.h"

namespace gplus::algo {
namespace {

using graph::DiGraph;
using graph::GraphBuilder;
using graph::NodeId;

// Seeded random digraph with hubs, dangling nodes and reciprocal edges —
// enough structure that every kernel has nontrivial work.
DiGraph random_graph(std::uint64_t seed, NodeId nodes, std::size_t edges) {
  GraphBuilder b;
  stats::Rng rng(seed);
  b.add_edge(0, nodes - 1);  // pin the node count
  for (std::size_t e = 0; e < edges; ++e) {
    // Square one endpoint's draw toward low ids to create hubs.
    const auto u = static_cast<NodeId>(
        rng.next_below(nodes) * rng.next_below(nodes) / nodes);
    const auto v = static_cast<NodeId>(rng.next_below(nodes));
    if (u == v) continue;
    b.add_edge(u, v);
    if (rng.next_bool(0.3)) b.add_edge(v, u);
  }
  return b.build();
}

class ParallelEquivalence : public ::testing::TestWithParam<std::size_t> {
 protected:
  void TearDown() override { core::set_thread_count(0); }

  // Runs `fn` once at 1 lane and once at the param lane count.
  template <typename Fn>
  auto baseline_and_parallel(Fn fn) {
    core::set_thread_count(1);
    auto base = fn();
    core::set_thread_count(GetParam());
    auto got = fn();
    return std::pair(std::move(base), std::move(got));
  }

  const DiGraph g_ = random_graph(7, 600, 6000);
};

TEST_P(ParallelEquivalence, TriangleCensusExact) {
  const auto [base, got] =
      baseline_and_parallel([&] { return count_triangles(g_); });
  EXPECT_EQ(base.triangles, got.triangles);
  EXPECT_EQ(base.triples, got.triples);
  EXPECT_DOUBLE_EQ(base.transitivity(), got.transitivity());
}

TEST_P(ParallelEquivalence, ClusteringCoefficientsMatch) {
  const auto [base, got] =
      baseline_and_parallel([&] { return clustering_coefficients(g_); });
  ASSERT_EQ(base.size(), got.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_DOUBLE_EQ(base[i], got[i]) << i;
  }
}

TEST_P(ParallelEquivalence, SampledClusteringMatchesWithSameSeed) {
  auto run = [&] {
    stats::Rng rng(21);
    return sampled_clustering_coefficients(g_, 150, rng);
  };
  const auto [base, got] = baseline_and_parallel(run);
  ASSERT_EQ(base.size(), got.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_DOUBLE_EQ(base[i], got[i]) << i;
  }
}

TEST_P(ParallelEquivalence, AnfBitIdentical) {
  auto run = [&] {
    AnfOptions options;
    options.precision = 6;
    options.undirected = true;
    return approximate_neighborhood_function(g_, options);
  };
  const auto [base, got] = baseline_and_parallel(run);
  EXPECT_EQ(base.iterations, got.iterations);
  ASSERT_EQ(base.reachable_pairs.size(), got.reachable_pairs.size());
  for (std::size_t h = 0; h < base.reachable_pairs.size(); ++h) {
    EXPECT_DOUBLE_EQ(base.reachable_pairs[h], got.reachable_pairs[h]) << h;
  }
  EXPECT_DOUBLE_EQ(base.mean_distance, got.mean_distance);
  EXPECT_DOUBLE_EQ(base.effective_diameter, got.effective_diameter);
}

TEST_P(ParallelEquivalence, DegreeVectorsAndDistributionsMatch) {
  auto run = [&] {
    return std::tuple(in_degrees(g_), out_degrees(g_),
                      in_degree_distribution(g_, 2),
                      out_degree_distribution(g_, 2));
  };
  const auto [base, got] = baseline_and_parallel(run);
  EXPECT_EQ(std::get<0>(base), std::get<0>(got));
  EXPECT_EQ(std::get<1>(base), std::get<1>(got));
  const auto& base_in = std::get<2>(base);
  const auto& got_in = std::get<2>(got);
  EXPECT_EQ(base_in.max, got_in.max);
  EXPECT_DOUBLE_EQ(base_in.mean, got_in.mean);
  EXPECT_DOUBLE_EQ(base_in.power_law.alpha, got_in.power_law.alpha);
  const auto& base_out = std::get<3>(base);
  const auto& got_out = std::get<3>(got);
  EXPECT_EQ(base_out.max, got_out.max);
  EXPECT_DOUBLE_EQ(base_out.mean, got_out.mean);
  EXPECT_DOUBLE_EQ(base_out.power_law.alpha, got_out.power_law.alpha);
}

TEST_P(ParallelEquivalence, ReciprocityMatches) {
  auto run = [&] {
    return std::pair(global_reciprocity(g_), relation_reciprocities(g_));
  };
  const auto [base, got] = baseline_and_parallel(run);
  EXPECT_DOUBLE_EQ(base.first, got.first);
  ASSERT_EQ(base.second.size(), got.second.size());
  for (std::size_t i = 0; i < base.second.size(); ++i) {
    EXPECT_DOUBLE_EQ(base.second[i], got.second[i]) << i;
  }
}

TEST_P(ParallelEquivalence, PathLengthEstimateExact) {
  auto run = [&] {
    PathLengthOptions opt;
    opt.initial_sources = 50;
    opt.max_sources = 150;
    stats::Rng rng(41);
    return estimate_path_lengths(g_, opt, rng);
  };
  const auto [base, got] = baseline_and_parallel(run);
  ASSERT_EQ(base.pmf.size(), got.pmf.size());
  for (std::size_t h = 0; h < base.pmf.size(); ++h) {
    EXPECT_DOUBLE_EQ(base.pmf[h], got.pmf[h]) << h;
  }
  EXPECT_DOUBLE_EQ(base.mean, got.mean);
  EXPECT_EQ(base.mode, got.mode);
  EXPECT_EQ(base.diameter_lower_bound, got.diameter_lower_bound);
  EXPECT_EQ(base.sources_used, got.sources_used);
  EXPECT_DOUBLE_EQ(base.reachable_fraction, got.reachable_fraction);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadCounts, ParallelEquivalence,
    ::testing::Values(
        std::size_t{1}, std::size_t{2}, std::size_t{7},
        std::size_t{std::max(1u, std::thread::hardware_concurrency())}),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "threads" + std::to_string(info.param) +
             (info.index == 3 ? "_hw" : "");
    });

}  // namespace
}  // namespace gplus::algo
