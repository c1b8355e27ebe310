// Triad motif engine bench: exact census throughput, wedge-sampler
// throughput off the v3 compressed snapshot view, and a calibration
// micro-leg, published as BENCH_motifs.json (override
// GPLUS_BENCH_MOTIFS_JSON):
//
//   exact_medges_per_s    exact 16-class census, million edges/s
//   sampled_wedges_per_s  seeded wedge estimator over SnapshotView
//   calib_improvement     initial/final objective error (higher better)
//
// The bench self-asserts the engine's contracts and exits nonzero on
// violation: the census must be bit-identical at GPLUS_THREADS=1 vs the
// default lane, the sampled closure fraction must agree with the exact
// census within tolerance, and calibration must never regress its
// objective.
//
// Modes: `--smoke` caps the scale for CI (default 20k nodes, ≤50k
// enforced); the default is the standard 150k bench dataset. GPLUS_SCALE
// overrides the node count, GPLUS_MOTIF_SAMPLES the estimator's wedge
// sample count.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "algo/clustering.h"
#include "algo/motifs.h"
#include "algo/reciprocity.h"
#include "algo/rewire.h"
#include "bench_common.h"
#include "core/parallel.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"

namespace {

using namespace gplus;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  std::size_t n = bench::env_or("GPLUS_SCALE", smoke ? 20'000 : 150'000);
  if (smoke) n = std::min<std::size_t>(n, 50'000);
  const std::uint64_t seed = bench::seed();
  const std::size_t samples =
      bench::env_or("GPLUS_MOTIF_SAMPLES", smoke ? 100'000 : 400'000);

  std::printf("=== motif_census — directed triad engine%s ===\n",
              smoke ? " (smoke)" : "");
  std::printf("dataset: %zu synthetic users, seed %llu\n\n", n,
              static_cast<unsigned long long>(seed));
  const core::Dataset dataset = core::make_standard_dataset(n, seed);
  const graph::DiGraph& g = dataset.graph();

  int failures = 0;
  std::vector<std::pair<std::string, double>> json_fields;

  // -- Exact census: timed on the default lane, verified against the
  // single-thread lane (the deterministic-runtime contract).
  auto start = std::chrono::steady_clock::now();
  const algo::TriadCensus census = algo::triad_census(g);
  const double exact_s = seconds_since(start);
  const double exact_medges =
      static_cast<double>(g.edge_count()) / exact_s / 1e6;
  std::printf("exact census     %8.2f Medges/s  (%.3fs, %llu closed triads)\n",
              exact_medges, exact_s,
              static_cast<unsigned long long>(census.closed()));

  core::set_thread_count(1);
  const algo::TriadCensus lane1 = algo::triad_census(g);
  core::set_thread_count(0);
  if (!(lane1 == census)) {
    std::printf("VIOLATION: census differs at GPLUS_THREADS=1\n");
    ++failures;
  }

  // -- Sampled census over the v3 compressed snapshot view: the
  // paper-scale path (mmap-served graphs too big for exact counting).
  serve::SnapshotOptions options;
  options.version = serve::kSnapshotVersion3;
  const serve::SnapshotBuffer snapshot = serve::build_snapshot(dataset, options);
  const serve::SnapshotView view(snapshot.bytes());
  algo::TriadSampleConfig sconfig;
  sconfig.samples = samples;
  sconfig.seed = seed + 1;
  start = std::chrono::steady_clock::now();
  const algo::SampledTriadCensus sampled =
      algo::sample_triad_census(view, sconfig);
  const double sampled_s = seconds_since(start);
  const double wedges_per_s =
      static_cast<double>(sampled.sampled) / sampled_s;
  std::printf("sampled census   %8.0f wedges/s  (%.3fs, %zu samples)\n",
              wedges_per_s, sampled_s, static_cast<std::size_t>(sampled.sampled));

  const double exact_closure = census.wedge_closure();
  const double err = std::abs(sampled.closed_fraction - exact_closure);
  // 5x the binomial standard error, plus an absolute guard for tiny
  // closure fractions: a seeded sampler outside this band is broken.
  const double sigma = std::sqrt(exact_closure * (1.0 - exact_closure) /
                                 static_cast<double>(sampled.sampled));
  const double tolerance = std::max(5.0 * sigma, 0.002);
  std::printf("closure: exact %.4f sampled %.4f (tolerance %.4f)\n",
              exact_closure, sampled.closed_fraction, tolerance);
  if (err > tolerance) {
    std::printf("VIOLATION: sampled closure off by %.4f > %.4f\n", err,
                tolerance);
    ++failures;
  }

  // -- Calibration micro-leg: steer a degree-matched random graph back
  // toward the generated profile; the greedy loop must never regress.
  const std::size_t calib_nodes = std::min<std::size_t>(n, 10'000);
  std::optional<core::Dataset> small_storage;
  if (calib_nodes != n) {
    small_storage.emplace(core::make_standard_dataset(calib_nodes, seed));
  }
  const graph::DiGraph& calib_base =
      small_storage ? small_storage->graph() : g;
  stats::Rng shuffle_rng(seed + 2);
  const graph::DiGraph randomized =
      algo::random_same_density(calib_base, shuffle_rng);
  algo::RewireObjective objective;
  objective.target_clustering =
      algo::average_clustering_coefficient(calib_base);
  objective.target_reciprocity = algo::global_reciprocity(calib_base);
  algo::CalibrateConfig cconfig;
  cconfig.seed = seed + 3;
  cconfig.max_rounds = smoke ? 4 : 8;
  cconfig.clustering_sample = 0;
  start = std::chrono::steady_clock::now();
  const algo::CalibrationResult calib =
      algo::calibrate_to_profile(randomized, objective, cconfig);
  const double calib_s = seconds_since(start);
  const double improvement =
      calib.final_error > 0.0 ? calib.initial_error / calib.final_error : 1.0;
  std::printf("calibration      %8.2fx error improvement  (%.3fs, %llu swaps)\n",
              improvement, calib_s,
              static_cast<unsigned long long>(calib.swaps_applied));
  if (calib.final_error > calib.initial_error) {
    std::printf("VIOLATION: calibration regressed its objective\n");
    ++failures;
  }

  json_fields.emplace_back("exact_medges_per_s", exact_medges);
  json_fields.emplace_back("sampled_wedges_per_s", wedges_per_s);
  json_fields.emplace_back("calib_improvement", improvement);

  const char* json_env = std::getenv("GPLUS_BENCH_MOTIFS_JSON");
  const std::string json_path = json_env != nullptr && *json_env != '\0'
                                    ? json_env
                                    : "BENCH_motifs.json";
  {
    std::ofstream out(json_path);
    out.precision(2);
    out << std::fixed;
    out << "{\n  \"bench\": \"motif_census\",\n  \"seed\": " << seed
        << ",\n  \"nodes\": " << n;
    for (const auto& [field, value] : json_fields) {
      out << ",\n  \"" << field << "\": " << value;
    }
    out << "\n}\n";
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  if (failures != 0) {
    std::printf("%d violation(s)\n", failures);
    return 1;
  }
  return 0;
}
