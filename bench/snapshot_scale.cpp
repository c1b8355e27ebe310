// Paper-scale snapshot pipeline: out-of-core build, mmap serving, §3.3.
//
// Streams a synthetic Google+ graph at the paper's published size (35.1M
// nodes, ~575M directed edges) through the out-of-core v3 builder, opens
// the result off mmap, reproduces the §3.3 structural figures (degree
// distribution moments, SCC decomposition, ANF hop distribution) straight
// from the compressed file, and drives the query server against it —
// everything the serving path claims at paper scale, measured end to end
// and published as BENCH_snapshot.json:
//
//   build: wall seconds, peak RSS (the < 8 GB out-of-core claim), runs
//   size:  bytes/stored-arc of the compressed adjacency (the < 8 B claim)
//          and whole-file bytes per directed edge
//   open:  microseconds to a validated mmap view (the O(1) claim)
//   serve: queries/s for the degree-profile and mixed workload mixes
//
// Modes: `--smoke` caps the scale (default 500k nodes, ≤1M enforced) for
// CI; the default is the paper's 35.1M. GPLUS_SCALE overrides the node
// count in either mode, GPLUS_REQUESTS the per-mix request count,
// GPLUS_ANF_PRECISION the HyperANF register width (default 7 smoke / 5
// full — at 35M nodes each extra bit of precision costs n·2^p bytes),
// GPLUS_WORK_DIR the scratch+output directory (default ./snapshot_scale_work,
// needs ~3x the final file size free), GPLUS_BENCH_JSON the report path.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "algo/anf.h"
#include "algo/scc.h"
#include "bench_common.h"
#include "core/parallel.h"
#include "core/reference.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"
#include "serve/snapshot_file.h"
#include "serve/snapshot_stats.h"
#include "serve/workload.h"
#include "synth/stream_gen.h"

namespace {

using namespace gplus;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_gib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
}

std::uint64_t header_offset(std::span<const std::byte> bytes,
                            std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, 8);
  return v;
}

struct Report {
  std::size_t nodes = 0;
  std::uint64_t edges = 0;
  double build_s = 0.0;
  double build_peak_rss_gib = 0.0;
  std::uint64_t runs = 0;
  std::uint64_t file_bytes = 0;
  double bytes_per_edge = 0.0;       // compressed adjacency, per stored arc
  double file_bytes_per_edge = 0.0;  // whole file, per directed edge
  double open_us = 0.0;
  double verify_s = 0.0;
  double degree_stats_s = 0.0;
  double scc_s = 0.0;
  double anf_s = 0.0;
  double mean_out_degree = 0.0;
  std::uint64_t max_in_degree = 0;
  double scc_giant_fraction = 0.0;
  std::uint64_t scc_count = 0;
  double effective_diameter = 0.0;
  double mean_distance = 0.0;
  double qps_degree_profile = 0.0;
  double qps_mixed = 0.0;
  std::uint64_t checksum_mixed = 0;
};

void write_json(const Report& r, const std::string& path) {
  std::ofstream out(path);
  out.precision(6);
  out << std::fixed;
  out << "{\n"
      << "  \"bench\": \"snapshot_scale\",\n"
      << "  \"nodes\": " << r.nodes << ",\n"
      << "  \"edges\": " << r.edges << ",\n"
      << "  \"build_seconds\": " << r.build_s << ",\n"
      << "  \"build_peak_rss_gib\": " << r.build_peak_rss_gib << ",\n"
      << "  \"sorted_runs\": " << r.runs << ",\n"
      << "  \"file_bytes\": " << r.file_bytes << ",\n"
      << "  \"bytes_per_edge\": " << r.bytes_per_edge << ",\n"
      << "  \"file_bytes_per_edge\": " << r.file_bytes_per_edge << ",\n"
      << "  \"open_us\": " << r.open_us << ",\n"
      << "  \"verify_seconds\": " << r.verify_s << ",\n"
      << "  \"degree_stats_seconds\": " << r.degree_stats_s << ",\n"
      << "  \"scc_seconds\": " << r.scc_s << ",\n"
      << "  \"anf_seconds\": " << r.anf_s << ",\n"
      << "  \"mean_out_degree\": " << r.mean_out_degree << ",\n"
      << "  \"max_in_degree\": " << r.max_in_degree << ",\n"
      << "  \"scc_count\": " << r.scc_count << ",\n"
      << "  \"scc_giant_fraction\": " << r.scc_giant_fraction << ",\n"
      << "  \"effective_diameter\": " << r.effective_diameter << ",\n"
      << "  \"mean_distance\": " << r.mean_distance << ",\n"
      << "  \"qps_degree_profile\": " << r.qps_degree_profile << ",\n"
      << "  \"qps_mixed\": " << r.qps_mixed << ",\n"
      << "  \"checksum_mixed\": " << r.checksum_mixed << "\n"
      << "}\n";
}

double run_mix(const serve::SnapshotView& view, const serve::WorkloadMix& mix,
               std::uint64_t requests, std::uint64_t& checksum) {
  serve::ServerConfig config;
  serve::QueryServer server(&view, config);
  serve::WorkloadConfig workload;
  workload.mix = mix;
  workload.requests = requests;
  const auto report = serve::run_closed_loop(server, workload);
  checksum = report.checksum;
  return report.qps;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const std::size_t nodes = [&] {
    std::size_t n = bench::env_or("GPLUS_SCALE", smoke ? 500'000 : 35'100'000);
    if (smoke) n = std::min<std::size_t>(n, 1'000'000);
    return n;
  }();
  // Checked here, not by algo::approximate_neighborhood_function after an
  // hour-long paper-scale build.
  const std::size_t anf_precision =
      bench::env_or("GPLUS_ANF_PRECISION", smoke ? 7 : 5);
  if (anf_precision < 4 || anf_precision > 16) {
    std::fprintf(stderr,
                 "gplus: invalid GPLUS_ANF_PRECISION=%zu (want [4, 16])\n",
                 anf_precision);
    return 2;
  }
  const char* work_env = std::getenv("GPLUS_WORK_DIR");
  const std::filesystem::path work_dir =
      work_env != nullptr && *work_env != '\0' ? work_env
                                               : "snapshot_scale_work";
  const char* json_env = std::getenv("GPLUS_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr && *json_env != '\0' ? json_env
                                               : "BENCH_snapshot.json";

  std::printf(
      "=== snapshot_scale%s — out-of-core v3 build + mmap serving ===\n",
      smoke ? " (smoke)" : "");
  std::printf("nodes %zu, seed %llu, %zu workers, work dir %s\n\n",
              nodes, static_cast<unsigned long long>(bench::seed()),
              core::thread_count(), work_dir.string().c_str());

  Report r;
  r.nodes = nodes;

  // ---- Build: stream the generator into the out-of-core builder. ----
  const std::filesystem::path snap_path = work_dir / "scale.snap";
  {
    const auto start = Clock::now();
    synth::PopulationModel population;
    geo::World world;
    synth::StreamGenConfig gen_config;
    gen_config.node_count = nodes;
    gen_config.seed = bench::seed();
    synth::StreamingGraphGen gen(gen_config, population, world);

    serve::OutOfCoreOptions options;
    options.work_dir = work_dir / "build";
    serve::OutOfCoreSnapshotBuilder builder(nodes, std::move(options));
    const std::uint64_t emitted =
        gen.stream_edges([&](graph::NodeId src, graph::NodeId dst) {
          builder.add_edge(src, dst);
        });
    for (graph::NodeId u = 0; u < nodes; ++u) {
      builder.set_profile(u, gen.profile(u));
    }
    const auto stats = builder.finish(snap_path);
    r.build_s = seconds_since(start);
    r.build_peak_rss_gib = peak_rss_gib();
    r.edges = stats.edge_count;
    r.runs = stats.run_count;
    r.file_bytes = stats.total_bytes;
    std::printf("build: %.1fs, %llu emitted -> %llu unique edges, %llu runs, "
                "%.2f GiB peak RSS\n",
                r.build_s, static_cast<unsigned long long>(emitted),
                static_cast<unsigned long long>(r.edges),
                static_cast<unsigned long long>(r.runs), r.build_peak_rss_gib);
  }

  // ---- Open off mmap: O(1) validated view, then full digest verify. ----
  const auto open_start = Clock::now();
  serve::MappedSnapshot mapped(snap_path);
  const serve::SnapshotView& view = mapped.view();
  r.open_us = seconds_since(open_start) * 1e6;
  {
    const auto verify_start = Clock::now();
    try {
      view.verify_sections();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL: %s\n", e.what());
      return 1;
    }
    r.verify_s = seconds_since(verify_start);
  }
  // Compressed-adjacency footprint per stored arc (each directed edge is
  // stored twice: once per direction); the whole-file figure includes
  // permutations, reciprocal counts and profiles.
  const auto bytes = view.bytes();
  const std::uint64_t adjacency_bytes =
      header_offset(bytes, 48) - header_offset(bytes, 32);
  r.bytes_per_edge = static_cast<double>(adjacency_bytes) /
                     (2.0 * static_cast<double>(r.edges));
  r.file_bytes_per_edge =
      static_cast<double>(r.file_bytes) / static_cast<double>(r.edges);
  std::printf("open: %.0fus to a validated view; verify %.2fs; "
              "%.2f B/arc adjacency, %.2f B/edge file\n",
              r.open_us, r.verify_s, r.bytes_per_edge, r.file_bytes_per_edge);
  if (r.bytes_per_edge >= 8.0) {
    std::fprintf(stderr, "FAIL: %.2f bytes/arc >= 8\n", r.bytes_per_edge);
    return 1;
  }

  // ---- §3.3 figures straight off the compressed file. ----
  {
    const auto& paper = core::paper_constants();
    auto t = Clock::now();
    const auto degrees = serve::snapshot_degree_stats(view);
    r.degree_stats_s = seconds_since(t);
    r.mean_out_degree = degrees.mean_out_degree;
    r.max_in_degree = degrees.max_in_degree;
    std::printf("degrees: mean out %.2f, max out %llu, max in %llu (%.1fs)\n",
                degrees.mean_out_degree,
                static_cast<unsigned long long>(degrees.max_out_degree),
                static_cast<unsigned long long>(degrees.max_in_degree),
                r.degree_stats_s);

    t = Clock::now();
    const auto scc = algo::strongly_connected_components(view);
    r.scc_s = seconds_since(t);
    r.scc_count = scc.component_count();
    r.scc_giant_fraction = scc.giant_fraction();
    std::printf("scc: %llu components, giant %.1f%% (paper %.0f%%) (%.1fs)\n",
                static_cast<unsigned long long>(r.scc_count),
                100.0 * r.scc_giant_fraction,
                100.0 * paper.giant_scc_fraction(), r.scc_s);

    algo::AnfOptions anf_options;
    anf_options.precision = static_cast<unsigned>(anf_precision);
    anf_options.undirected = true;
    t = Clock::now();
    const auto anf = algo::approximate_neighborhood_function(view, anf_options);
    r.anf_s = seconds_since(t);
    r.effective_diameter = anf.effective_diameter;
    r.mean_distance = anf.mean_distance;
    std::printf("anf(p=%u, undirected): eff. diameter %.2f, mean dist %.2f "
                "(paper %.1f) (%.1fs)\n",
                anf_options.precision, r.effective_diameter, r.mean_distance,
                paper.undirected_mean_path, r.anf_s);
  }

  // ---- Serving off the mapped compressed snapshot. ----
  {
    const std::uint64_t requests =
        bench::env_or("GPLUS_REQUESTS", smoke ? 200'000 : 1'000'000);
    std::uint64_t checksum = 0;
    r.qps_degree_profile =
        run_mix(view, serve::WorkloadMix::degree_profile(), requests, checksum);
    r.qps_mixed =
        run_mix(view, serve::WorkloadMix::mixed(), requests, r.checksum_mixed);
    std::printf("serve: degree-profile %.0f q/s, mixed %.0f q/s "
                "(checksum %016llx)\n",
                r.qps_degree_profile, r.qps_mixed,
                static_cast<unsigned long long>(r.checksum_mixed));
  }

  write_json(r, json_path);
  std::printf("\nwrote %s\n", json_path.c_str());
  std::error_code ec;
  std::filesystem::remove(snap_path, ec);
  std::filesystem::remove(work_dir / "build", ec);
  std::filesystem::remove(work_dir, ec);  // only when empty
  return 0;
}
