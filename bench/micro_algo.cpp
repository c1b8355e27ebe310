// Micro-benchmarks (google-benchmark): analysis kernels and the generator.
#include <benchmark/benchmark.h>

#include "algo/clustering.h"
#include "algo/degrees.h"
#include "algo/reciprocity.h"
#include "algo/anf.h"
#include "algo/bfs.h"
#include "algo/scc.h"
#include "algo/triangles.h"
#include "geo/world.h"
#include "graph/digraph.h"
#include "stats/rng.h"
#include "synth/graph_gen.h"
#include "synth/population.h"

namespace {

using namespace gplus;
using graph::DiGraph;
using graph::NodeId;

const synth::PopulationModel& population() {
  static const synth::PopulationModel instance;
  return instance;
}

const geo::World& world() {
  static const geo::World instance;
  return instance;
}

const DiGraph& preset_graph(std::size_t nodes) {
  static std::map<std::size_t, synth::GeneratedNetwork> cache;
  auto it = cache.find(nodes);
  if (it == cache.end()) {
    it = cache.emplace(nodes, synth::generate_network(
                                  synth::google_plus_preset(nodes, 42),
                                  population(), world()))
             .first;
  }
  return it->second.graph;
}

void BM_GenerateNetwork(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto net = synth::generate_network(
        synth::google_plus_preset(nodes, 42), population(), world());
    benchmark::DoNotOptimize(net.graph.edge_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_GenerateNetwork)
    ->Range(1 << 12, 1 << 15)
    ->Unit(benchmark::kMillisecond);

void BM_GlobalReciprocity(benchmark::State& state) {
  const auto& g = preset_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::global_reciprocity(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.edge_count()));
}
BENCHMARK(BM_GlobalReciprocity)->Range(1 << 12, 1 << 15);

void BM_StronglyConnectedComponents(benchmark::State& state) {
  const auto& g = preset_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        algo::strongly_connected_components(g).component_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.edge_count()));
}
BENCHMARK(BM_StronglyConnectedComponents)->Range(1 << 12, 1 << 15);

// One BFS from a fixed source; arg 0 follows edge direction, arg 1 walks
// out∪in.
void BM_BfsDistances(benchmark::State& state) {
  const auto& g = preset_graph(1 << 15);
  const bool undirected = state.range(0) != 0;
  for (auto _ : state) {
    const auto dist = undirected ? algo::bfs_distances_undirected(g, 7)
                                 : algo::bfs_distances(g, 7);
    benchmark::DoNotOptimize(dist.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.edge_count()));
}
BENCHMARK(BM_BfsDistances)->Arg(0)->Arg(1);

void BM_SampledClustering(benchmark::State& state) {
  const auto& g = preset_graph(1 << 14);
  stats::Rng rng(1);
  const auto sample = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        algo::sampled_clustering_coefficients(g, sample, rng).size());
  }
}
BENCHMARK(BM_SampledClustering)->Range(256, 4096);

void BM_DegreeDistribution(benchmark::State& state) {
  const auto& g = preset_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        algo::in_degree_distribution(g, 3).power_law.alpha);
  }
}
BENCHMARK(BM_DegreeDistribution)->Range(1 << 12, 1 << 15);

void BM_RelationReciprocities(benchmark::State& state) {
  const auto& g = preset_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::relation_reciprocities(g).size());
  }
}
BENCHMARK(BM_RelationReciprocities)->Range(1 << 12, 1 << 15);

void BM_TriangleCensus(benchmark::State& state) {
  const auto& g = preset_graph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::count_triangles(g).triangles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.edge_count()));
}
BENCHMARK(BM_TriangleCensus)->Range(1 << 12, 1 << 15);

void BM_HyperAnf(benchmark::State& state) {
  const auto& g = preset_graph(1 << 13);
  algo::AnfOptions options;
  options.precision = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        algo::approximate_neighborhood_function(g, options).mean_distance);
  }
}
BENCHMARK(BM_HyperAnf)->Arg(5)->Arg(7)->Arg(9)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
