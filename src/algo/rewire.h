// Degree-preserving null models.
//
// "Is the measured clustering / reciprocity a property of the *structure*
// or just of the degree sequence?" — the standard answer is to compare
// against a configuration-model rewiring: shuffle edge endpoints while
// keeping every node's in- and out-degree fixed, then re-measure. Used by
// the ablation benches to show G+'s triangles and mutual links are far
// above the degree-sequence baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "stats/rng.h"

namespace gplus::algo {

/// Degree-preserving double-edge-swap randomization: repeatedly picks two
/// directed edges (a->b, c->d) and swaps targets to (a->d, c->b), skipping
/// swaps that would create self-loops or parallel edges. `swaps_per_edge`
/// controls mixing (10 is plenty in practice). In- and out-degree of every
/// node are exactly preserved.
graph::DiGraph rewire_configuration_model(const graph::DiGraph& g,
                                          double swaps_per_edge, stats::Rng& rng);

/// Erdős–Rényi-style directed G(n, m) with the same node and edge counts
/// as `g` (degrees NOT preserved); the cruder baseline.
graph::DiGraph random_same_density(const graph::DiGraph& g, stats::Rng& rng);

// ---------------------------------------------------------------------------
// Objective-driven rewiring (DESIGN.md §16.3). The inverse of the null
// model above: instead of destroying structure while preserving degrees,
// steer a graph *toward* a target structural profile — the BLANT-style
// calibration move. Used to close the streaming generator's clustering
// gap against the in-RAM generator (and the paper's §4 numbers) without
// giving up its O(n) memory footprint.

/// Target structural profile. Each term enters the objective as a
/// weighted squared relative error; a zero weight disables the term.
struct RewireObjective {
  /// Mean directed clustering coefficient (§3.3.3 definition).
  double target_clustering = 0.0;
  double clustering_weight = 1.0;
  /// Global edge reciprocity (§3.3.2; 32% on Google+).
  double target_reciprocity = 0.0;
  double reciprocity_weight = 1.0;
  /// Triad wedge closure (TriadCensus::wedge_closure). Off by default:
  /// the exact census per round is affordable at calibration scale but
  /// not free.
  double target_closure = 0.0;
  double closure_weight = 0.0;
};

/// Calibration loop knobs.
struct CalibrateConfig {
  std::uint64_t seed = 1;
  /// Proposal rounds; each round is measured and reverted wholesale if
  /// the objective error did not improve.
  std::size_t max_rounds = 24;
  /// Swap proposals per round, as a fraction of the edge count.
  double swaps_per_round_per_edge = 0.02;
  /// Nodes sampled per clustering measurement (0 = exact mean). The
  /// sample set is re-drawn from a fixed measurement seed each round, so
  /// rounds are compared on identical estimators.
  std::size_t clustering_sample = 20'000;
  /// Stop once the objective error falls at or below this.
  double tolerance = 1e-3;
  /// Stop after this many consecutive reverted rounds.
  std::size_t max_stale_rounds = 3;
};

/// One structural measurement under a RewireObjective (closure is only
/// computed when its weight is positive; otherwise 0).
struct CalibrationMeasurement {
  double clustering = 0.0;
  double reciprocity = 0.0;
  double closure = 0.0;
};

/// Calibration outcome. `final_error <= initial_error` always holds: a
/// round that fails to improve the objective is reverted.
struct CalibrationResult {
  graph::DiGraph graph;
  CalibrationMeasurement initial;
  CalibrationMeasurement calibrated;
  double initial_error = 0.0;
  double final_error = 0.0;
  /// Accepted objective error after every round (reverted rounds repeat
  /// the previous value).
  std::vector<double> round_errors;
  std::uint64_t rounds_accepted = 0;
  std::uint64_t rounds_reverted = 0;
  /// Edge retargetings in accepted rounds.
  std::uint64_t swaps_applied = 0;
};

/// Measures a graph's profile the way the calibration loop scores it.
CalibrationMeasurement measure_profile(const graph::DiGraph& g,
                                       const RewireObjective& objective,
                                       const CalibrateConfig& config = {});

/// Weighted RMS of the relative errors of `measured` vs the objective's
/// targets (the quantity the loop minimizes).
double objective_error(const CalibrationMeasurement& measured,
                       const RewireObjective& objective);

/// Degree-preserving greedy calibration toward `objective`. Three
/// in/out-degree-preserving move kinds — wedge-closing double swaps
/// (raise clustering), reciprocal-closing double swaps (raise
/// reciprocity) and plain configuration-model swaps (lower both) — are
/// proposed in proportion to the sign and size of the current errors;
/// each round is accepted only if the measured objective error drops.
/// Deterministic in `config.seed` at any GPLUS_THREADS and on any host
/// (proposals are serial; measurements run on the deterministic parallel
/// runtime and the result-identical shared intersection). Self-loops in the input are
/// preserved or retargeted but never created; isolated nodes are
/// untouched.
CalibrationResult calibrate_to_profile(const graph::DiGraph& g,
                                       const RewireObjective& objective,
                                       const CalibrateConfig& config = {});

}  // namespace gplus::algo
