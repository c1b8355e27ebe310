// Pinned outputs of the src/algo kernels that walk out∪in rows or
// intersect sorted adjacency lists: triangles, k-core, label propagation
// and modularity, reciprocity and clustering. The values were recorded
// once and must never move: the kernels share one union walk, one
// forward-list build and one intersection dispatch, so they can no longer
// serve as each other's oracle.
//
// Two inputs: the standard synthetic dataset, and a seeded random digraph
// built with keep_self_loops = true, so the self-loop corrections in the
// union walk and in clustering are exercised. The triangle census also
// runs on the v2, v3 and mmap snapshot views of the standard dataset.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "algo/clustering.h"
#include "algo/communities.h"
#include "algo/kcore.h"
#include "algo/reciprocity.h"
#include "algo/triangles.h"
#include "core/dataset.h"
#include "serve/snapshot.h"
#include "serve/snapshot_file.h"
#include "stats/rng.h"

namespace gplus::algo {
namespace {

using graph::DiGraph;
using graph::Edge;
using graph::NodeId;

// FNV-1a over a sequence of 64-bit words (little-endian byte order).
class Fnv1a {
 public:
  void add(std::uint64_t word) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFFU;
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

template <typename T>
std::uint64_t digest(std::span<const T> values) {
  Fnv1a h;
  h.add(values.size());
  for (const T v : values) {
    if constexpr (std::is_same_v<T, double>) {
      h.add(std::bit_cast<std::uint64_t>(v));
    } else {
      h.add(static_cast<std::uint64_t>(v));
    }
  }
  return h.value();
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Random digraph with reciprocated edges and self-loops (every 8th node,
// plus the u == v draws).
DiGraph random_graph_with_self_loops() {
  constexpr NodeId kNodes = 400;
  stats::Rng rng(20'261'017);
  std::vector<Edge> edges;
  for (int i = 0; i < 4'000; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(kNodes));
    const auto v = static_cast<NodeId>(rng.next_below(kNodes));
    edges.push_back({u, v});
    if (rng.next_bool(0.3)) edges.push_back({v, u});
  }
  for (NodeId u = 0; u < kNodes; u += 8) edges.push_back({u, u});
  return DiGraph::from_edges(kNodes, edges, /*keep_self_loops=*/true);
}

const core::Dataset& standard_dataset() {
  static const core::Dataset ds = core::make_standard_dataset(3'000, 19);
  return ds;
}

const DiGraph& looped_graph() {
  static const DiGraph g = random_graph_with_self_loops();
  return g;
}

struct Pinned {
  std::uint64_t triangles;
  std::uint64_t triples;
  std::uint64_t coreness;
  std::uint64_t partition;
  std::uint64_t modularity_bits;
  std::uint64_t relation_reciprocities;
  std::uint64_t global_reciprocity_bits;
  std::uint64_t clustering;
};

Pinned measure(const DiGraph& g) {
  Pinned p{};
  const TriangleCensus census = count_triangles(g);
  p.triangles = census.triangles;
  p.triples = census.triples;
  p.coreness = digest<std::uint32_t>(k_core_decomposition(g).coreness);
  // One pass: later passes merge the standard graph into one community,
  // whose modularity is exactly 0 and would pin nothing.
  stats::Rng rng(5);
  const Partition partition = label_propagation(g, rng, 1);
  p.partition = digest<std::uint32_t>(partition.label);
  p.modularity_bits = bits(modularity(g, partition));
  p.relation_reciprocities = digest<double>(relation_reciprocities(g));
  p.global_reciprocity_bits = bits(global_reciprocity(g));
  p.clustering = digest<double>(clustering_coefficients(g));
  return p;
}

void expect_pinned(const Pinned& got, const Pinned& want) {
  EXPECT_EQ(got.triangles, want.triangles);
  EXPECT_EQ(got.triples, want.triples);
  EXPECT_EQ(got.coreness, want.coreness);
  EXPECT_EQ(got.partition, want.partition);
  EXPECT_EQ(got.modularity_bits, want.modularity_bits);
  EXPECT_EQ(got.relation_reciprocities, want.relation_reciprocities);
  EXPECT_EQ(got.global_reciprocity_bits, want.global_reciprocity_bits);
  EXPECT_EQ(got.clustering, want.clustering);
}

TEST(AlgoPinned, StandardDataset) {
  const Pinned want{
      121'338,
      6'749'809,
      0x393bdeccd13d2937ULL,
      0xb0b2820f4093001eULL,
      0x3f99af23b5b9118dULL,
      0xd81d0d889c8c9453ULL,
      0x3fd8a94df1cea803ULL,
      0x35846e357c6a9794ULL,
  };
  expect_pinned(measure(standard_dataset().graph()), want);
}

TEST(AlgoPinned, RandomGraphWithSelfLoops) {
  const DiGraph& g = looped_graph();
  std::size_t loops = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) loops += g.has_edge(u, u);
  ASSERT_EQ(loops, 62u);
  const Pinned want{
      1'216,
      75'811,
      0xaa5b28d83c3af7b0ULL,
      0x005f20f45b716985ULL,
      0x3fb3319d24d3d552ULL,
      0xcc1f56d763d3cb24ULL,
      0x3fde9056be18f7e5ULL,
      0x23576a0102b0fefcULL,
  };
  expect_pinned(measure(g), want);
}

TEST(AlgoPinned, TriangleCensusIdenticalOnSnapshotViews) {
  const TriangleCensus want = count_triangles(standard_dataset().graph());
  ASSERT_GT(want.triangles, 0u);
  const auto expect_same = [&](const TriangleCensus& got, const char* label) {
    EXPECT_EQ(got.triangles, want.triangles) << label;
    EXPECT_EQ(got.triples, want.triples) << label;
  };

  const serve::SnapshotBuffer v2 = serve::build_snapshot(standard_dataset());
  expect_same(count_triangles_of_view(serve::SnapshotView(v2.bytes())),
              "v2 flat");
  serve::SnapshotOptions options;
  options.version = serve::kSnapshotVersion3;
  const serve::SnapshotBuffer v3 =
      serve::build_snapshot(standard_dataset(), options);
  const serve::SnapshotView compressed(v3.bytes());
  ASSERT_TRUE(compressed.adjacency_compressed());
  expect_same(count_triangles_of_view(compressed), "v3 compressed");

  const auto path = std::filesystem::temp_directory_path() /
                    ("gplus_algo_pinned_" + std::to_string(::getpid()) +
                     ".snap");
  serve::save_snapshot(v3, path);
  {
    const serve::MappedSnapshot mapped(path);
    expect_same(count_triangles_of_view(mapped.view()), "v3 mmap");
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace gplus::algo
