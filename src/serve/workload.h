// Deterministic closed-loop load harness for the query server.
//
// Simulates C closed-loop clients: each keeps exactly one request in
// flight, submitting its next request only after the previous answer (or
// rejection) came back. Targets are drawn Zipf-over-in-degree-rank with
// exponent s≈1.3 — the paper's in-degree power law (§3.1) — so the offered
// load is celebrity-heavy exactly the way real profile traffic against the
// service would be.
//
// Everything the workload emits is a pure function of (config, snapshot):
// per-client xoshiro streams generate the request sequence, the server
// answers batches deterministically, and the harness folds every response
// (status + payload) into an FNV-1a checksum in request order. The same
// seed therefore yields a byte-identical response stream — and the same
// final cache/counter state — at any GPLUS_THREADS value; only the timing
// numbers (throughput, latency percentiles) vary with the machine. The
// harness reads the clock; the servers' drains never do.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "serve/server.h"

namespace gplus::serve {

/// Request-type weights (need not sum to 1; zero disables a type).
struct WorkloadMix {
  std::array<double, kRequestTypeCount> weights{};

  /// 50/50 Degree + GetProfile — the cheap-lookup mix the acceptance
  /// throughput target is quoted against.
  static WorkloadMix degree_profile();
  /// Profile/circle/reciprocity/degree read mix (no path probes).
  static WorkloadMix read();
  /// ShortestPath-heavy probe mix (Table 4 style).
  static WorkloadMix path();
  /// Every request type, weighted toward the cheap ones.
  static WorkloadMix mixed();
  /// Suggest-heavy recommendation mix (DESIGN.md §14): half kSuggest, the
  /// rest cheap profile/degree lookups — the Zipf celebrity skew makes
  /// this the 2-hop-expansion stress load.
  static WorkloadMix suggest();

  /// Parses a preset name ("degree-profile", "read", "path", "mixed",
  /// "suggest"); throws std::invalid_argument on anything else.
  static WorkloadMix by_name(std::string_view name);
};

/// Load-harness knobs.
struct WorkloadConfig {
  std::uint64_t seed = 1;
  /// Closed-loop clients (one outstanding request each).
  std::size_t clients = 256;
  /// Stop once this many requests have been served.
  std::uint64_t requests = 1'000'000;
  /// Zipf exponent over the in-degree ranking (paper α≈1.3).
  double zipf_exponent = 1.3;
  WorkloadMix mix = WorkloadMix::degree_profile();
};

/// What one closed-loop run produced.
struct LoadReport {
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;
  double elapsed_s = 0.0;
  double qps = 0.0;
  /// Serving-latency percentiles, microseconds. Each admitted request is
  /// timed from the submit() that admitted it to the return of the drain()
  /// that answered it: queue wait and every drain phase included. This is
  /// the quantity the repo benchmark reports as lat_p50_ms/lat_p99_ms.
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t response_bytes = 0;
  /// Responses flagged degraded (kResponseShardDark or
  /// kResponseQuorumPartial) — nonzero only on clusters with dark shards
  /// or a faulty transport.
  std::uint64_t degraded = 0;
  /// FNV-1a over the concatenated response stream (status + size +
  /// payload, request order) — the cross-thread-count equivalence probe.
  std::uint64_t checksum = 0;
  /// ShortestPath responses that executed (cost > 0: not a cache hit or
  /// a shed) and their summed virtual cost. Exact counts, as
  /// deterministic as the checksum.
  std::uint64_t path_executed = 0;
  std::uint64_t path_cost = 0;
  /// Final server counters (including cache hit/miss/eviction state).
  ServerStats server;
};

/// Drives the server with the configured closed-loop workload until
/// `config.requests` responses have been served. Deterministic in
/// (config, snapshot) except for the timing fields.
LoadReport run_closed_loop(QueryServer& server, const WorkloadConfig& config);

}  // namespace gplus::serve
