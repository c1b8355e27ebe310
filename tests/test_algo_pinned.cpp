// Pinned outputs of the view-templated src/algo kernels: triangles, k-core,
// label propagation and modularity, reciprocity, clustering, BFS
// distances, sampled path lengths, the double sweep and the degree
// distributions. The values were recorded once and must never move: each
// kernel is one template over the graph view (algo/graph_view.h), so there
// is no second implementation left to act as its oracle.
//
// Two inputs: the standard synthetic dataset, and a seeded random digraph
// built with keep_self_loops = true, so the self-loop corrections in the
// union walk and in clustering are exercised. Every pin must hold on the
// DiGraph and on the v2, v3 and mmap snapshot views of each input. CTest
// runs this binary at the default lane count and at GPLUS_THREADS=1.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "algo/bfs.h"
#include "algo/clustering.h"
#include "algo/communities.h"
#include "algo/degrees.h"
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

template <typename T>
std::uint64_t digest(std::span<const T> values) {
  Fnv1a h;
  h.add(values.size());
  for (const T v : values) {
    if constexpr (std::is_same_v<T, double>) {
      h.add(bits(v));
    } else {
      h.add(static_cast<std::uint64_t>(v));
    }
  }
  return h.value();
}

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

// The looped graph with empty profiles: enough to build a snapshot of it.
const core::Dataset& looped_dataset() {
  static const core::Dataset ds = [] {
    core::Dataset out;
    out.net.graph = random_graph_with_self_loops();
    out.profiles.resize(out.net.graph.node_count());
    return out;
  }();
  return ds;
}

// Named pins in a fixed order.
using Pins = std::vector<std::pair<std::string, std::uint64_t>>;

template <class View>
Pins measure(const View& view) {
  Pins p;
  const TriangleCensus census = count_triangles(view);
  p.emplace_back("triangles", census.triangles);
  p.emplace_back("triples", census.triples);
  p.emplace_back("coreness",
                 digest<std::uint32_t>(k_core_decomposition(view).coreness));
  // One pass: later passes merge the standard graph into one community,
  // whose modularity is exactly 0 and would pin nothing.
  stats::Rng lp_rng(5);
  const Partition partition = label_propagation(view, lp_rng, 1);
  p.emplace_back("partition", digest<std::uint32_t>(partition.label));
  p.emplace_back("modularity", bits(modularity(view, partition)));
  p.emplace_back("relation_reciprocities",
                 digest<double>(relation_reciprocities(view)));
  p.emplace_back("global_reciprocity", bits(global_reciprocity(view)));
  p.emplace_back("clustering", digest<double>(clustering_coefficients(view)));

  const auto n = static_cast<NodeId>(view.node_count());
  Fnv1a directed;
  Fnv1a undirected;
  for (const NodeId s : {NodeId{0}, n / 3, n / 2, n - 1}) {
    for (const auto d : bfs_distances(view, s)) directed.add(d);
    for (const auto d : bfs_distances_undirected(view, s)) undirected.add(d);
  }
  p.emplace_back("bfs_directed", directed.value());
  p.emplace_back("bfs_undirected", undirected.value());
  for (const bool und : {false, true}) {
    const std::string tag = und ? "undirected" : "directed";
    PathLengthOptions options;
    options.initial_sources = 40;
    options.max_sources = 160;
    options.undirected = und;
    stats::Rng rng(23);
    const PathLengthEstimate est = estimate_path_lengths(view, options, rng);
    p.emplace_back("paths_" + tag + "_pmf", digest<double>(est.pmf));
    p.emplace_back("paths_" + tag + "_mean", bits(est.mean));
    p.emplace_back("paths_" + tag + "_mode", est.mode);
    p.emplace_back("paths_" + tag + "_diameter", est.diameter_lower_bound);
    p.emplace_back("paths_" + tag + "_reachable", bits(est.reachable_fraction));
    p.emplace_back("paths_" + tag + "_sources", est.sources_used);
    p.emplace_back("sweep_" + tag, double_sweep_diameter(view, n / 3, und));
  }
  for (const bool in : {true, false}) {
    const std::string tag = in ? "in" : "out";
    const DegreeDistribution dist =
        in ? in_degree_distribution(view) : out_degree_distribution(view);
    Fnv1a ccdf;
    ccdf.add(dist.ccdf.size());
    for (const auto& point : dist.ccdf) {
      ccdf.add(bits(point.x));
      ccdf.add(bits(point.y));
    }
    p.emplace_back(tag + "_degree_ccdf", ccdf.value());
    p.emplace_back(tag + "_degree_mean", bits(dist.mean));
    p.emplace_back(tag + "_degree_max", dist.max);
    p.emplace_back(tag + "_degree_alpha", bits(dist.power_law.alpha));
  }
  return p;
}

void expect_pinned(const Pins& got, const Pins& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << label;
    EXPECT_EQ(got[i].second, want[i].second) << label << " " << want[i].first;
  }
}

// Runs fn(view, label) on the v2, v3 and mmap snapshot views of `dataset`.
template <class Fn>
void for_each_snapshot_view(const core::Dataset& dataset, Fn&& fn) {
  serve::SnapshotOptions options;
  options.country_index = false;
  const serve::SnapshotBuffer v2 = serve::build_snapshot(dataset, options);
  fn(serve::SnapshotView(v2.bytes()), "v2 flat");
  options.version = serve::kSnapshotVersion3;
  const serve::SnapshotBuffer v3 = serve::build_snapshot(dataset, options);
  const serve::SnapshotView compressed(v3.bytes());
  ASSERT_TRUE(compressed.adjacency_compressed());
  fn(compressed, "v3 compressed");

  const auto path = std::filesystem::temp_directory_path() /
                    ("gplus_algo_pinned_" + std::to_string(::getpid()) +
                     ".snap");
  serve::save_snapshot(v3, path);
  {
    const serve::MappedSnapshot mapped(path);
    fn(mapped.view(), "v3 mmap");
  }
  std::filesystem::remove(path);
}

// The first eight pins predate the view port; the rest were recorded at
// the commit before it, on the DiGraph-only implementations.
const Pins kStandardPins = {
    {"triangles", 121'338},
    {"triples", 6'749'809},
    {"coreness", 0x393bdeccd13d2937ULL},
    {"partition", 0xb0b2820f4093001eULL},
    {"modularity", 0x3f99af23b5b9118dULL},
    {"relation_reciprocities", 0xd81d0d889c8c9453ULL},
    {"global_reciprocity", 0x3fd8a94df1cea803ULL},
    {"clustering", 0x35846e357c6a9794ULL},
    {"bfs_directed", 0x72a193bba071e17eULL},
    {"bfs_undirected", 0x8a5dcefadbaa8c34ULL},
    {"paths_directed_pmf", 0xb8a0005ae7a3f9d1ULL},
    {"paths_directed_mean", 0x40084c568eb97d36ULL},
    {"paths_directed_mode", 3},
    {"paths_directed_diameter", 6},
    {"paths_directed_reachable", 0x3fe81a69332a757eULL},
    {"paths_directed_sources", 160},
    {"sweep_directed", 4},
    {"paths_undirected_pmf", 0x20c5365b2c1e9b6aULL},
    {"paths_undirected_mean", 0x40037239df6eebb8ULL},
    {"paths_undirected_mode", 2},
    {"paths_undirected_diameter", 4},
    {"paths_undirected_reachable", 0x3fefac39d75569bbULL},
    {"paths_undirected_sources", 160},
    {"sweep_undirected", 5},
    {"in_degree_ccdf", 0xa7a19f5991cc0401ULL},
    {"in_degree_mean", 0x40303ee402bb0cf8ULL},
    {"in_degree_max", 307},
    {"in_degree_alpha", 0x3ffa8c4cc376faf9ULL},
    {"out_degree_ccdf", 0xf85a2163d5ef0d2eULL},
    {"out_degree_mean", 0x40303ee402bb0cf8ULL},
    {"out_degree_max", 1171},
    {"out_degree_alpha", 0x3ff28594c0ab7195ULL},
};

const Pins kLoopedPins = {
    {"triangles", 1'216},
    {"triples", 75'811},
    {"coreness", 0xaa5b28d83c3af7b0ULL},
    {"partition", 0x005f20f45b716985ULL},
    {"modularity", 0x3fb3319d24d3d552ULL},
    {"relation_reciprocities", 0xcc1f56d763d3cb24ULL},
    {"global_reciprocity", 0x3fde9056be18f7e5ULL},
    {"clustering", 0x23576a0102b0fefcULL},
    {"bfs_directed", 0x072e685f3920e4e7ULL},
    {"bfs_undirected", 0x486d4fa5e81cc580ULL},
    {"paths_directed_pmf", 0x0fe63659510e5b55ULL},
    {"paths_directed_mean", 0x400512a37b0f4529ULL},
    {"paths_directed_mode", 3},
    {"paths_directed_diameter", 4},
    {"paths_directed_reachable", 0x3ff0000000000000ULL},
    {"paths_directed_sources", 160},
    {"sweep_directed", 4},
    {"paths_undirected_pmf", 0x8166948086e79041ULL},
    {"paths_undirected_mean", 0x4002920fa7b71d20ULL},
    {"paths_undirected_mode", 2},
    {"paths_undirected_diameter", 4},
    {"paths_undirected_reachable", 0x3ff0000000000000ULL},
    {"paths_undirected_sources", 160},
    {"sweep_undirected", 4},
    {"in_degree_ccdf", 0x9e6cb0c5e7736349ULL},
    {"in_degree_mean", 0x4029bc28f5c28f5cULL},
    {"in_degree_max", 23},
    {"in_degree_alpha", 0x40000b31e8f7d6aeULL},
    {"out_degree_ccdf", 0x4d6bdfbb8c80dd29ULL},
    {"out_degree_mean", 0x4029bc28f5c28f5cULL},
    {"out_degree_max", 26},
    {"out_degree_alpha", 0x400631a4b1c5d0f4ULL},
};

TEST(AlgoPinned, StandardDataset) {
  expect_pinned(measure(standard_dataset().graph()), kStandardPins, "DiGraph");
}

TEST(AlgoPinned, RandomGraphWithSelfLoops) {
  const DiGraph& g = looped_dataset().graph();
  std::size_t loops = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) loops += g.has_edge(u, u);
  ASSERT_EQ(loops, 62u);
  expect_pinned(measure(g), kLoopedPins, "DiGraph");
}

TEST(AlgoPinned, StandardDatasetOnSnapshotViews) {
  for_each_snapshot_view(standard_dataset(),
                         [](const serve::SnapshotView& view, const char* label) {
                           expect_pinned(measure(view), kStandardPins, label);
                         });
}

TEST(AlgoPinned, RandomGraphWithSelfLoopsOnSnapshotViews) {
  for_each_snapshot_view(looped_dataset(),
                         [](const serve::SnapshotView& view, const char* label) {
                           expect_pinned(measure(view), kLoopedPins, label);
                         });
}

// Snapshot accessors are unchecked loads, so each per-node entry checks
// its node id once; a DiGraph must fail the same way.
TEST(AlgoPinned, PerNodeEntriesRejectOutOfRangeIds) {
  const auto expect_rejected = [](const auto& view, const char* label) {
    SCOPED_TRACE(label);
    const auto bad = static_cast<NodeId>(view.node_count());
    EXPECT_THROW(bfs_distances(view, bad), std::invalid_argument);
    EXPECT_THROW(bfs_distances_undirected(view, bad), std::invalid_argument);
    EXPECT_THROW(double_sweep_diameter(view, bad, false),
                 std::invalid_argument);
    EXPECT_THROW(double_sweep_diameter(view, bad, true),
                 std::invalid_argument);
    EXPECT_THROW(relation_reciprocity(view, bad), std::invalid_argument);
    EXPECT_THROW(clustering_coefficient(view, bad), std::invalid_argument);
  };
  expect_rejected(standard_dataset().graph(), "DiGraph");
  serve::SnapshotOptions options;
  options.version = serve::kSnapshotVersion3;
  const serve::SnapshotBuffer v3 =
      serve::build_snapshot(standard_dataset(), options);
  expect_rejected(serve::SnapshotView(v3.bytes()), "v3 compressed");
}

}  // namespace
}  // namespace gplus::algo
