// Serial-vs-parallel speedup of the kernels ported onto the shared
// runtime (core/parallel.h), on a synthetic power-law graph.
//
// Prints one row per kernel: serial time (1 lane), parallel time
// (GPLUS_THREADS / hardware lanes) and the speedup. The triangle census
// carries the headline expectation (>= 1.5x on 4+ cores); on hosts with
// fewer cores the expectation is reported as SKIP, a measured shortfall
// as MISS. Determinism is asserted as a side effect: both runs of every
// kernel must agree bit-for-bit.
//
// GPLUS_SCALE overrides the node count (default 120,000 — comfortably
// over the 100k the trajectory tracks); GPLUS_SEED the generator seed.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "algo/anf.h"
#include "algo/clustering.h"
#include "algo/reciprocity.h"
#include "algo/triangles.h"
#include "bench_common.h"
#include "core/parallel.h"
#include "geo/world.h"
#include "synth/graph_gen.h"
#include "synth/population.h"

namespace {

using namespace gplus;

double seconds_of(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

struct Row {
  std::string kernel;
  double serial_s = 0.0;
  double parallel_s = 0.0;
  bool identical = false;
  bool headline = false;  // carries the >= 1.5x expectation
};

void print_row(const Row& row, std::size_t cores) {
  const double speedup = row.parallel_s > 0 ? row.serial_s / row.parallel_s : 0;
  const char* verdict = "";
  if (row.headline) {
    if (cores < 4) {
      verdict = speedup >= 1.5 ? "ok (and <4 cores)" : "SKIP (<4 cores)";
    } else {
      verdict = speedup >= 1.5 ? "ok" : "MISS (expected >= 1.5x)";
    }
  }
  std::printf("%-22s %9.3fs %9.3fs %7.2fx  %-10s %s\n", row.kernel.c_str(),
              row.serial_s, row.parallel_s, speedup,
              row.identical ? "identical" : "DIVERGED", verdict);
}

}  // namespace

int main() {
  const std::size_t nodes = gplus::bench::env_or("GPLUS_SCALE", 120'000);
  const std::uint64_t seed = gplus::bench::seed();
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  gplus::bench::banner("micro_parallel",
                       "serial vs shared-pool speedup of the hot kernels");
  std::printf(
      "lanes: serial=1, parallel=%zu (GPLUS_THREADS honored), "
      "host cores=%zu\n\n",
      gplus::core::thread_count(), cores);

  const synth::PopulationModel population;
  const geo::World world;
  const auto net = synth::generate_network(
      synth::google_plus_preset(nodes, seed), population, world);
  const auto& g = net.graph;
  std::printf("graph: %zu nodes, %zu edges (power-law preset)\n\n",
              g.node_count(), g.edge_count());
  std::printf("%-22s %10s %10s %8s  %-10s %s\n", "kernel", "serial", "parallel",
              "speedup", "results", "headline");

  std::vector<Row> rows;
  // Each entry runs the kernel twice — once at 1 lane, once at the
  // default lane count — and diffs the results.
  auto bench = [&](const std::string& name, bool headline, auto kernel,
                   auto equal) {
    Row row;
    row.kernel = name;
    row.headline = headline;
    gplus::core::set_thread_count(1);
    decltype(kernel()) serial_result;
    row.serial_s = seconds_of([&] { serial_result = kernel(); });
    gplus::core::set_thread_count(0);
    decltype(kernel()) parallel_result;
    row.parallel_s = seconds_of([&] { parallel_result = kernel(); });
    row.identical = equal(serial_result, parallel_result);
    print_row(row, cores);
    rows.push_back(row);
  };

  bench(
      "triangle census", true, [&] { return algo::count_triangles(g); },
      [](const auto& a, const auto& b) {
        return a.triangles == b.triangles && a.triples == b.triples;
      });
  bench(
      "clustering (exact)", false,
      [&] { return algo::clustering_coefficients(g); },
      [](const auto& a, const auto& b) { return a == b; });
  bench(
      "global reciprocity", false, [&] { return algo::global_reciprocity(g); },
      [](double a, double b) { return a == b; });
  bench(
      "hyperanf (p=6)", false,
      [&] {
        algo::AnfOptions options;
        options.precision = 6;
        return algo::approximate_neighborhood_function(g, options)
            .reachable_pairs;
      },
      [](const auto& a, const auto& b) { return a == b; });

  bool all_identical = true;
  for (const auto& row : rows) all_identical &= row.identical;
  std::printf("\ndeterminism: %s\n",
              all_identical ? "all kernels thread-count independent"
                            : "MISS — serial/parallel results diverged");
  return all_identical ? 0 : 1;
}
