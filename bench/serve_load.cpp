// Closed-loop load harness for the query-serving subsystem.
//
// Builds a snapshot of the standard seeded dataset, then drives the
// batched query server with the seeded Zipf-over-in-degree client mixes
// (§3.1's α≈1.3 celebrity skew) and reports throughput, p50/p95/p99
// serving latency, cache statistics and the response-stream checksum —
// the checksum is identical at every GPLUS_THREADS value, which is the
// determinism contract this harness exists to demonstrate. Serving
// latency is admission to response: each admitted request is timed from
// its submit to the return of the drain that answered it, queue wait and
// every drain phase included (the repo benchmark's lat_p50/lat_p99).
//
// `--shards K` additionally splits the snapshot into K vertex shards and
// drives the same mixed workload through the sharded cluster router
// (DESIGN.md §13). The cluster's response-stream checksum must equal the
// unsharded server's — the harness exits nonzero when it does not.
//
// `--transport` (with --shards) re-runs the cluster leg over a seeded
// faulty transport (DESIGN.md §15): drops, delays, duplicates and
// reordering between router and replicas. That leg's checksum is NOT
// asserted against the unsharded run — degraded answers are the point —
// but every request still reaches a terminal status, and the harness
// reports how many responses carried an explicit degradation flag.
//
// `--smoke` shrinks the dataset and request counts for the CI bench gate,
// which publishes the JSON report (default BENCH_serve.json, override
// with GPLUS_BENCH_SERVE_JSON) and compares the throughput fields against
// bench/floors.json; it also carries p50_us_<leg> and p99_us_<leg> for
// every leg run, cluster and faulty legs included. `--mix NAME` runs a
// single named mix leg instead of the full sweep (point
// GPLUS_BENCH_SERVE_JSON elsewhere so the restricted report doesn't
// shadow the full one's floored fields). Scale
// with GPLUS_SCALE / GPLUS_SEED; request count with GPLUS_REQUESTS. The
// final section offers the queue past capacity and shows bounded,
// explicit rejection.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/parallel.h"
#include "serve/cluster.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"
#include "serve/workload.h"

namespace {

using namespace gplus;

struct MixResult {
  std::string name;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t checksum = 0;
};

MixResult leg_result(std::string name, const serve::LoadReport& report) {
  return {std::move(name), report.qps, report.p50_us, report.p99_us,
          report.checksum};
}

MixResult run_mix(const serve::SnapshotView& view, const char* name,
                  const serve::WorkloadMix& mix, std::uint64_t requests) {
  serve::ServerConfig config;
  serve::QueryServer server(&view, config);
  serve::WorkloadConfig workload;
  workload.mix = mix;
  workload.requests = requests;
  const auto report = serve::run_closed_loop(server, workload);
  std::printf(
      "%-15s %9.0f q/s  p50 %6.2fus  p95 %6.2fus  p99 %6.2fus  "
      "hit %5.1f%%  rejected %llu  checksum %016llx\n",
      name, report.qps, report.p50_us, report.p95_us, report.p99_us,
      100.0 * report.server.cache.hit_rate(),
      static_cast<unsigned long long>(report.rejected),
      static_cast<unsigned long long>(report.checksum));
  return leg_result(name, report);
}

void overload_demo(const serve::SnapshotView& view) {
  serve::ServerConfig config;
  config.queue_capacity = 64;
  serve::QueryServer server(&view, config);
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    serve::Request q;
    q.type = serve::RequestType::kDegree;
    q.user = i % static_cast<std::uint32_t>(view.node_count());
    (server.submit(q) == serve::ServeStatus::kOk) ? ++accepted : ++rejected;
  }
  std::printf(
      "overload: offered 1000 to a %zu-slot queue -> accepted %llu, "
      "rejected %llu (bounded, explicit)\n",
      server.queue_capacity(), static_cast<unsigned long long>(accepted),
      static_cast<unsigned long long>(rejected));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gplus;
  bool smoke = false;
  bool transport = false;
  std::size_t shards = 0;
  const char* only_mix = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--transport") == 0) {
      transport = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--mix") == 0 && i + 1 < argc) {
      only_mix = argv[++i];
    }
  }
  if (transport && shards == 0) {
    std::fprintf(stderr,
                 "serve_load: --transport needs --shards K (the fault model "
                 "sits between router and shard replicas)\n");
    return 1;
  }

  bench::banner("serve_load",
                "closed-loop query serving over the immutable snapshot");
  const std::size_t nodes = smoke ? 20'000 : bench::scale();
  const auto dataset = core::make_standard_dataset(nodes, bench::seed());
  const auto snapshot = serve::build_snapshot(dataset);
  const serve::SnapshotView view(snapshot.bytes());
  std::printf("snapshot: %zu nodes, %zu bytes, %zu workers%s\n\n", nodes,
              snapshot.size(), core::thread_count(), smoke ? " (smoke)" : "");

  const std::uint64_t requests =
      bench::env_or("GPLUS_REQUESTS", smoke ? 100'000 : 1'000'000);
  // Path and suggest legs carry multi-hop traversals per request; a tenth
  // of the request count keeps their wall time in line with the cheap legs.
  const auto leg_requests = [&](std::string_view name) {
    return (name == "path" || name == "suggest") ? requests / 10 : requests;
  };
  std::vector<MixResult> results;
  std::size_t cluster_ref = 2;  // index of the leg the cluster re-runs
  if (only_mix != nullptr) {
    results.push_back(run_mix(view, only_mix,
                              serve::WorkloadMix::by_name(only_mix),
                              leg_requests(only_mix)));
    cluster_ref = 0;
  } else {
    results.push_back(run_mix(view, "degree-profile",
                              serve::WorkloadMix::degree_profile(), requests));
    results.push_back(
        run_mix(view, "read", serve::WorkloadMix::read(), requests));
    results.push_back(
        run_mix(view, "mixed", serve::WorkloadMix::mixed(), requests));
    results.push_back(
        run_mix(view, "path", serve::WorkloadMix::path(), requests / 10));
    results.push_back(run_mix(view, "suggest", serve::WorkloadMix::suggest(),
                              requests / 10));
  }
  const std::string cluster_leg = results[cluster_ref].name;
  // Every leg run, cluster and faulty legs included: their latency
  // percentiles all go into the JSON report.
  std::vector<MixResult> timed = results;

  // Sharded cluster leg: the reference workload (mixed, or the --mix
  // selection) re-driven through the K-shard router. Answer-identical to
  // the unsharded run — checksum equality is asserted.
  int failures = 0;
  double qps_cluster = 0.0;
  double qps_faulty = 0.0;
  std::uint64_t checksum_cluster = 0;
  std::uint64_t degraded_faulty = 0;
  if (shards > 0) {
    serve::ShardingOptions opts;
    opts.shard_count = shards;
    const auto sharded = serve::split_snapshot(view, opts);
    std::vector<serve::SnapshotView> shard_views;
    shard_views.reserve(shards);
    for (const auto& shard : sharded.shards) {
      shard_views.emplace_back(shard.bytes());
    }
    std::vector<const serve::SnapshotView*> ptrs;
    for (const auto& sv : shard_views) ptrs.push_back(&sv);
    serve::ClusterServer cluster(&sharded.routing, ptrs);
    serve::WorkloadConfig workload;
    workload.mix = serve::WorkloadMix::by_name(cluster_leg);
    workload.requests = leg_requests(cluster_leg);
    const auto report = serve::run_closed_loop(cluster, view, workload);
    timed.push_back(leg_result("cluster_" + cluster_leg, report));
    qps_cluster = report.qps;
    checksum_cluster = report.checksum;
    const auto stats = cluster.stats_snapshot();
    const std::string label = "cluster-" + cluster_leg;
    std::printf(
        "%-15s %9.0f q/s  p50 %6.2fus  p95 %6.2fus  p99 %6.2fus  "
        "scatter %llu  messages %llu  checksum %016llx  (%zu shards)\n",
        label.c_str(), report.qps, report.p50_us, report.p95_us,
        report.p99_us, static_cast<unsigned long long>(stats.scatter),
        static_cast<unsigned long long>(stats.messages),
        static_cast<unsigned long long>(report.checksum), shards);
    const std::uint64_t checksum_ref = results[cluster_ref].checksum;
    if (checksum_cluster != checksum_ref) {
      std::printf("VIOLATION: cluster %s checksum %016llx != unsharded "
                  "%016llx\n",
                  cluster_leg.c_str(),
                  static_cast<unsigned long long>(checksum_cluster),
                  static_cast<unsigned long long>(checksum_ref));
      ++failures;
    }

    // Faulty-transport leg: the same workload through a cluster whose
    // router↔replica channel drops, delays, duplicates and reorders.
    // Checksum equality is deliberately NOT asserted here — some answers
    // are explicitly degraded — but nothing may hang or vanish. The drop
    // rate sits above the chaos storm's cruising profile on purpose:
    // retries + hedging fully mask light loss, and a leg whose degraded
    // count is always zero demonstrates nothing.
    if (transport) {
      serve::ClusterConfig faulty_config;
      faulty_config.replicas = 2;
      faulty_config.transport.enabled = true;
      faulty_config.transport.seed = bench::seed() ^ 0x7E5AULL;
      faulty_config.transport.profile.drop_rate = 0.12;
      faulty_config.transport.profile.delay_rate = 0.10;
      faulty_config.transport.profile.delay_min = 4;
      faulty_config.transport.profile.delay_max = 40;
      faulty_config.transport.profile.duplicate_rate = 0.02;
      faulty_config.transport.profile.reorder_rate = 0.05;
      serve::ClusterServer faulty(&sharded.routing, ptrs, faulty_config);
      const auto faulty_report = serve::run_closed_loop(faulty, view, workload);
      timed.push_back(leg_result("faulty_" + cluster_leg, faulty_report));
      qps_faulty = faulty_report.qps;
      degraded_faulty = faulty_report.degraded;
      const auto& t = faulty.transport_stats();
      const std::string faulty_label = "faulty-" + cluster_leg;
      std::printf(
          "%-15s %9.0f q/s  p50 %6.2fus  p95 %6.2fus  p99 %6.2fus  "
          "degraded %llu  rpcs %llu  hedges %llu  checksum %016llx\n",
          faulty_label.c_str(), faulty_report.qps, faulty_report.p50_us,
          faulty_report.p95_us, faulty_report.p99_us,
          static_cast<unsigned long long>(degraded_faulty),
          static_cast<unsigned long long>(t.rpcs),
          static_cast<unsigned long long>(t.hedges),
          static_cast<unsigned long long>(faulty_report.checksum));
      if (faulty_report.served < workload.requests) {
        std::printf("VIOLATION: faulty leg served %llu < %llu requested\n",
                    static_cast<unsigned long long>(faulty_report.served),
                    static_cast<unsigned long long>(workload.requests));
        ++failures;
      }
    }
  }
  std::printf("\n");
  overload_demo(view);

  const char* json_env = std::getenv("GPLUS_BENCH_SERVE_JSON");
  const std::string json_path =
      json_env != nullptr && *json_env != '\0' ? json_env : "BENCH_serve.json";
  {
    std::ofstream out(json_path);
    out.precision(1);
    out << std::fixed;
    out << "{\n"
        << "  \"bench\": \"serve_load\",\n"
        << "  \"nodes\": " << nodes << ",\n"
        << "  \"requests\": " << requests << ",\n"
        << "  \"threads\": " << core::thread_count() << ",\n"
        << "  \"shards\": " << shards << ",\n";
    for (const MixResult& r : results) {
      out << "  \"qps_" << r.name << "\": " << r.qps << ",\n";
    }
    for (const MixResult& r : timed) {
      out << "  \"p50_us_" << r.name << "\": " << r.p50_us << ",\n"
          << "  \"p99_us_" << r.name << "\": " << r.p99_us << ",\n";
    }
    // Cluster fields only when a cluster leg ran: a 0 q/s would read as a
    // collapse to a floor on that name.
    if (shards > 0) {
      out << "  \"qps_cluster_" << cluster_leg << "\": " << qps_cluster
          << ",\n"
          << "  \"checksum_cluster_" << cluster_leg << "\": \"" << std::hex
          << checksum_cluster << std::dec << "\",\n";
    }
    if (transport) {
      out << "  \"qps_faulty_" << cluster_leg << "\": " << qps_faulty << ",\n"
          << "  \"degraded_faulty_" << cluster_leg << "\": " << degraded_faulty
          << ",\n";
    }
    out << "  \"checksum_" << cluster_leg << "\": \"" << std::hex
        << results[cluster_ref].checksum << std::dec << "\"\n"
        << "}\n";
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  if (failures != 0) {
    std::printf("%d violation(s)\n", failures);
    return 1;
  }
  return 0;
}
