#include "cli/commands.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <string_view>

#include "algo/clustering.h"
#include "algo/degrees.h"
#include "algo/motifs.h"
#include "algo/reciprocity.h"
#include "algo/rewire.h"
#include "cli/args.h"
#include "core/analysis.h"
#include "core/dataset_io.h"
#include "core/parallel.h"
#include "core/table.h"
#include "crawler/bias.h"
#include "core/export.h"
#include "core/report.h"
#include "crawler/crawler.h"
#include "evolve/motif_evolution.h"
#include "geo/countries.h"
#include "graph/edgelist_io.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/cluster.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"
#include "serve/workload.h"
#include "service/service.h"

namespace gplus::cli {

namespace {

synth::GraphGenConfig preset_by_name(const std::string& name, std::size_t nodes,
                                     std::uint64_t seed) {
  if (name == "google-plus") return synth::google_plus_preset(nodes, seed);
  if (name == "twitter") return synth::twitter_like_preset(nodes, seed);
  if (name == "facebook") return synth::facebook_like_preset(nodes, seed);
  throw std::invalid_argument("unknown preset: " + name +
                              " (expected google-plus, twitter or facebook)");
}

// Parses with the given parser, printing usage on error. Returns false
// when the command should abort with exit code 2.
bool parse_or_usage(ArgParser& parser, const std::vector<std::string>& args,
                    std::ostream& out) {
  if (const auto error = parser.parse(args)) {
    out << "error: " << *error << "\n\n" << parser.usage();
    return false;
  }
  return true;
}

// Declares the shared --threads option on analysis-heavy commands.
void add_threads_option(ArgParser& parser) {
  parser.add_option("threads", "0",
                    "worker threads for the parallel kernels "
                    "(0 = GPLUS_THREADS or all cores)");
}

// Applies --threads to the shared pool; results never depend on it.
void apply_threads_option(const ArgParser& parser) {
  core::set_thread_count(parser.get_u64("threads"));
}

}  // namespace

int cmd_generate(const std::vector<std::string>& args, std::ostream& out) {
  ArgParser parser("gplus generate", "generate a calibrated synthetic dataset");
  parser.add_option("nodes", "100000", "number of users");
  parser.add_option("seed", "42", "generator seed");
  parser.add_option("preset", "google-plus",
                    "network preset: google-plus, twitter, facebook");
  parser.add_option("out", "gplus.dataset", "output dataset file");
  if (!parse_or_usage(parser, args, out)) return 2;

  core::DatasetConfig config;
  config.graph = preset_by_name(parser.get("preset"), parser.get_u64("nodes"),
                                parser.get_u64("seed"));
  config.profile.seed = parser.get_u64("seed") ^ 0xC0FFEE;
  const auto dataset = core::make_dataset(config);
  core::save_dataset(dataset, parser.get("out"));
  out << "wrote " << parser.get("out") << ": "
      << core::fmt_count(dataset.user_count()) << " users, "
      << core::fmt_count(dataset.graph().edge_count()) << " edges\n";
  return 0;
}

int cmd_analyze(const std::vector<std::string>& args, std::ostream& out) {
  ArgParser parser("gplus analyze", "structural and profile summary");
  parser.add_option("in", "gplus.dataset", "dataset file");
  parser.add_option("path-sources", "300", "BFS sources for path sampling");
  parser.add_flag("attributes", "also print the Table 2 attribute summary");
  add_threads_option(parser);
  if (!parse_or_usage(parser, args, out)) return 2;
  apply_threads_option(parser);

  const auto dataset = core::load_dataset(parser.get("in"));
  stats::Rng rng(1);
  const auto s = core::structural_summary(dataset.graph(),
                                          parser.get_u64("path-sources"), rng);
  core::TextTable table({"Metric", "Value", "Paper (Google+)"});
  table.add_row({"Nodes", core::fmt_count(s.nodes), "35.1M"});
  table.add_row({"Edges", core::fmt_count(s.edges), "575M"});
  table.add_row({"Mean degree", core::fmt_double(s.mean_degree, 2), "16.4"});
  table.add_row({"Reciprocity", core::fmt_percent(s.reciprocity), "32%"});
  table.add_row({"Mean path length", core::fmt_double(s.path_length, 2), "5.9"});
  table.add_row({"Diameter (lb)", std::to_string(s.diameter_lower_bound), "19"});
  table.add_row({"Giant SCC", core::fmt_percent(s.giant_scc_fraction), "72%"});
  table.add_row({"In-degree alpha", core::fmt_double(s.in_alpha, 2), "1.3"});
  table.add_row({"Out-degree alpha", core::fmt_double(s.out_alpha, 2), "1.2"});
  out << table.str();

  if (parser.get_flag("attributes")) {
    out << "\n";
    core::TextTable attrs({"Attribute", "Available", "%"});
    for (const auto& row : core::attribute_availability(dataset)) {
      attrs.add_row({std::string(synth::attribute_name(row.attribute)),
                     core::fmt_count(row.available),
                     core::fmt_percent(row.fraction)});
    }
    out << attrs.str();
  }
  return 0;
}

int cmd_top(const std::vector<std::string>& args, std::ostream& out) {
  ArgParser parser("gplus top", "top users by in-degree (Table 1 style)");
  parser.add_option("in", "gplus.dataset", "dataset file");
  parser.add_option("k", "20", "list length");
  if (!parse_or_usage(parser, args, out)) return 2;

  const auto dataset = core::load_dataset(parser.get("in"));
  const auto top = core::top_users(dataset, parser.get_u64("k"));
  core::TextTable table({"Rank", "Name", "Occupation", "Country", "In-degree"});
  for (std::size_t i = 0; i < top.size(); ++i) {
    table.add_row({std::to_string(i + 1), top[i].name,
                   std::string(synth::occupation_name(top[i].occupation)),
                   top[i].country == geo::kNoCountry
                       ? "?"
                       : std::string(geo::country(top[i].country).code),
                   core::fmt_count(top[i].in_degree)});
  }
  out << table.str();
  return 0;
}

int cmd_crawl(const std::vector<std::string>& args, std::ostream& out) {
  ArgParser parser("gplus crawl", "simulate the paper's BFS crawl (§2.2)");
  parser.add_option("in", "gplus.dataset", "dataset file");
  parser.add_option("coverage", "1.0", "fraction of profiles to expand");
  parser.add_option("cap", "10000", "public circle-list cap");
  parser.add_option("machines", "11", "simulated crawl machines");
  parser.add_option("fault-rate", "0.0",
                    "total injected-fault rate (split across transient "
                    "drops, rate limits and truncated pages)");
  parser.add_option("checkpoint", "",
                    "checkpoint file: resume from it when present, "
                    "snapshot to it while crawling");
  if (!parse_or_usage(parser, args, out)) return 2;

  const auto dataset = core::load_dataset(parser.get("in"));
  service::ServiceConfig sconfig;
  sconfig.circle_list_cap =
      static_cast<std::uint32_t>(parser.get_u64("cap"));
  const double fault_rate = parser.get_double("fault-rate");
  sconfig.faults.transient_rate = fault_rate / 2.0;
  sconfig.faults.rate_limit_rate = fault_rate / 4.0;
  sconfig.faults.truncation_rate = fault_rate / 4.0;
  sconfig.faults.slow_rate = fault_rate;
  service::SocialService svc(&dataset.graph(), dataset.profiles, sconfig);

  crawler::CrawlConfig config;
  config.seed_node = core::top_users(dataset, 1)[0].node;
  config.machines = parser.get_u64("machines");
  config.checkpoint.path = parser.get("checkpoint");
  const double coverage = parser.get_double("coverage");
  if (coverage < 1.0) {
    config.max_profiles = static_cast<std::size_t>(
        coverage * static_cast<double>(dataset.user_count()));
  }
  const auto crawl = crawler::run_bfs_crawl(svc, config);
  const auto bias = crawler::measure_bias(dataset.graph(), crawl);
  const auto lost = crawler::estimate_lost_edges(svc, crawl);

  core::TextTable table({"Metric", "Value"});
  table.add_row({"Profiles crawled", core::fmt_count(crawl.stats.profiles_crawled)});
  table.add_row({"Boundary nodes", core::fmt_count(crawl.stats.boundary_nodes)});
  table.add_row({"Edges collected", core::fmt_count(crawl.graph.edge_count())});
  table.add_row({"Requests", core::fmt_count(crawl.stats.requests)});
  table.add_row({"Simulated hours",
                 core::fmt_double(crawl.stats.simulated_hours, 1)});
  table.add_row({"Degree-bias ratio", core::fmt_double(bias.degree_bias_ratio, 2)});
  table.add_row({"Edge recall", core::fmt_percent(bias.edge_recall, 1)});
  table.add_row({"Users over cap", core::fmt_count(lost.users_over_cap)});
  table.add_row({"Lost-edge fraction", core::fmt_percent(lost.lost_fraction, 2)});
  if (fault_rate > 0.0 || !config.checkpoint.path.empty()) {
    const auto& retry = crawl.stats.retry;
    table.add_row({"Retries", core::fmt_count(retry.retries)});
    table.add_row({"Transient failures", core::fmt_count(retry.transient)});
    table.add_row({"Rate-limit responses", core::fmt_count(retry.rate_limited)});
    table.add_row({"Truncated pages", core::fmt_count(retry.truncated)});
    table.add_row({"Backoff seconds",
                   core::fmt_double(retry.backoff_ms / 1'000.0, 1)});
    table.add_row({"Fault-lost fraction",
                   core::fmt_percent(lost.fault_lost_fraction, 2)});
    table.add_row({"Resumed profiles",
                   core::fmt_count(crawl.stats.resumed_profiles)});
    table.add_row({"Checkpoints written",
                   core::fmt_count(crawl.stats.checkpoints_written)});
  }
  out << table.str();
  return 0;
}

int cmd_export(const std::vector<std::string>& args, std::ostream& out) {
  ArgParser parser("gplus export", "export the dataset for other tools");
  parser.add_option("in", "gplus.dataset", "dataset file");
  parser.add_option("out", "edges.txt",
                    "output file (for csv: the node file; edges go to "
                    "<out>.edges.csv)");
  parser.add_option("format", "text", "text, binary, graphml or csv");
  parser.add_flag("latent", "export latent ground truth instead of the "
                            "publicly visible view");
  if (!parse_or_usage(parser, args, out)) return 2;

  const auto dataset = core::load_dataset(parser.get("in"));
  const std::string& format = parser.get("format");
  core::ExportOptions options;
  options.public_view = !parser.get_flag("latent");
  if (format == "text") {
    graph::save_text(dataset.graph(), parser.get("out"));
  } else if (format == "binary") {
    graph::save_binary(dataset.graph(), parser.get("out"));
  } else if (format == "graphml") {
    core::save_graphml(dataset, parser.get("out"), options);
  } else if (format == "csv") {
    core::save_csv(dataset, parser.get("out"),
                   parser.get("out") + ".edges.csv", options);
  } else {
    out << "error: unknown format: " << format << "\n";
    return 2;
  }
  out << "wrote " << parser.get("out") << " ("
      << core::fmt_count(dataset.graph().edge_count()) << " edges, " << format
      << ")\n";
  return 0;
}

int cmd_report(const std::vector<std::string>& args, std::ostream& out) {
  ArgParser parser("gplus report",
                   "full markdown reproduction report for a dataset");
  parser.add_option("in", "gplus.dataset", "dataset file");
  parser.add_option("out", "", "write to this file instead of stdout");
  parser.add_option("path-sources", "200", "BFS sources for path sampling");
  add_threads_option(parser);
  if (!parse_or_usage(parser, args, out)) return 2;
  apply_threads_option(parser);

  const auto dataset = core::load_dataset(parser.get("in"));
  core::ReportOptions options;
  options.path_sources = parser.get_u64("path-sources");
  if (parser.get("out").empty()) {
    core::write_report(dataset, out, options);
  } else {
    std::ofstream file(parser.get("out"));
    if (!file) {
      out << "error: cannot open " << parser.get("out") << "\n";
      return 1;
    }
    core::write_report(dataset, file, options);
    out << "wrote " << parser.get("out") << "\n";
  }
  return 0;
}

int cmd_snapshot(const std::vector<std::string>& args, std::ostream& out) {
  ArgParser parser("gplus snapshot",
                   "build a serving snapshot from a dataset, or inspect one");
  parser.add_option("in", "gplus.dataset", "input dataset file");
  parser.add_option("out", "gplus.snap", "output snapshot file");
  parser.add_option("inspect", "",
                    "snapshot file to inspect instead of building");
  parser.add_flag("no-country-index", "omit the located-users-by-country index");
  parser.add_option("format-version", "2",
                    "snapshot format to emit: 2 (flat CSR) or 3 (compressed "
                    "adjacency)");
  add_threads_option(parser);
  if (!parse_or_usage(parser, args, out)) return 2;
  apply_threads_option(parser);

  if (!parser.get("inspect").empty()) {
    const auto snapshot = serve::load_snapshot(parser.get("inspect"));
    const serve::SnapshotView view(snapshot.bytes());
    std::uint64_t reciprocal = 0;
    for (graph::NodeId u = 0; u < view.node_count(); ++u) {
      reciprocal += view.reciprocal_out_degree(u);
    }
    std::uint64_t located = 0;
    if (view.has_country_index()) {
      for (std::uint16_t c = 0; c < geo::country_count(); ++c) {
        located += view.country_users(c).size();
      }
    }
    core::TextTable table({"Field", "Value"});
    table.add_row({"File", parser.get("inspect")});
    table.add_row({"Bytes", core::fmt_count(view.bytes().size())});
    table.add_row({"Version", std::to_string(view.version())});
    table.add_row({"Compressed adjacency",
                   view.adjacency_compressed() ? "yes" : "no"});
    table.add_row({"Nodes", core::fmt_count(view.node_count())});
    table.add_row({"Edges", core::fmt_count(view.edge_count())});
    table.add_row({"Reciprocity",
                   core::fmt_percent(view.edge_count() == 0
                                         ? 0.0
                                         : static_cast<double>(reciprocal) /
                                               static_cast<double>(view.edge_count()))});
    table.add_row({"Country index", view.has_country_index() ? "yes" : "no"});
    if (view.has_country_index()) {
      table.add_row({"Located users", core::fmt_count(located)});
    }
    out << table.str();
    return 0;
  }

  const auto dataset = core::load_dataset(parser.get("in"));
  serve::SnapshotOptions options;
  options.country_index = !parser.get_flag("no-country-index");
  options.version = static_cast<std::uint32_t>(parser.get_u64("format-version"));
  const auto snapshot = serve::build_snapshot(dataset, options);
  serve::save_snapshot(snapshot, parser.get("out"));
  out << "wrote " << parser.get("out") << ": "
      << core::fmt_count(snapshot.size()) << " bytes, "
      << core::fmt_count(dataset.user_count()) << " users, "
      << core::fmt_count(dataset.graph().edge_count()) << " edges\n";
  return 0;
}

int cmd_shard(const std::vector<std::string>& args, std::ostream& out) {
  ArgParser parser("gplus shard",
                   "split a snapshot into self-contained vertex shards plus "
                   "a routing table (DESIGN.md §13)");
  parser.add_option("in", "",
                    "dataset or snapshot file (empty: generate "
                    "--nodes/--seed in memory)");
  parser.add_option("nodes", "100000", "users to generate when --in is empty");
  parser.add_option("seed", "42", "dataset seed when --in is empty");
  parser.add_option("shards", "4", "shard count (1..256)");
  parser.add_option("policy", "stripe",
                    "ownership policy over the degree rank space: stripe "
                    "(round-robin) or range (degree-mass balanced)");
  parser.add_option("out", "gplus",
                    "output prefix: writes <out>.shard<i>.snap and "
                    "<out>.routing");
  add_threads_option(parser);
  if (!parse_or_usage(parser, args, out)) return 2;
  apply_threads_option(parser);

  const serve::SnapshotBuffer snapshot = [&] {
    const std::string& in = parser.get("in");
    if (in.empty()) {
      return serve::build_snapshot(core::make_standard_dataset(
          parser.get_u64("nodes"), parser.get_u64("seed")));
    }
    std::ifstream probe(in, std::ios::binary);
    if (!probe.is_open()) {
      throw std::runtime_error("shard: cannot open " + in);
    }
    if (serve::sniff_snapshot_magic(probe)) {
      return serve::load_snapshot(in);
    }
    return serve::build_snapshot(core::load_dataset(in));
  }();
  const serve::SnapshotView view(snapshot.bytes());

  serve::ShardingOptions options;
  options.shard_count = parser.get_u64("shards");
  const std::string& policy = parser.get("policy");
  if (policy == "stripe") {
    options.policy = serve::ShardingPolicy::kRankStripe;
  } else if (policy == "range") {
    options.policy = serve::ShardingPolicy::kRankRange;
  } else {
    throw std::invalid_argument("unknown policy: " + policy +
                                " (expected stripe or range)");
  }
  const auto sharded = serve::split_snapshot(view, options);

  const std::string& prefix = parser.get("out");
  serve::save_routing_table(sharded.routing, prefix + ".routing");
  std::vector<std::uint64_t> owned(sharded.shards.size(), 0);
  for (const std::uint8_t owner : sharded.routing.owner) ++owned[owner];
  core::TextTable table({"Shard", "File", "Owned nodes", "Edges", "Bytes"});
  for (std::size_t s = 0; s < sharded.shards.size(); ++s) {
    const std::string path =
        prefix + ".shard" + std::to_string(s) + ".snap";
    serve::save_snapshot(sharded.shards[s], path);
    const serve::SnapshotView shard_view(sharded.shards[s].bytes());
    table.add_row({std::to_string(s), path, core::fmt_count(owned[s]),
                   core::fmt_count(shard_view.edge_count()),
                   core::fmt_count(sharded.shards[s].size())});
  }
  out << "split " << core::fmt_count(view.node_count()) << " nodes / "
      << core::fmt_count(view.edge_count()) << " edges into "
      << sharded.shards.size() << " shards (policy "
      << std::string(serve::sharding_policy_name(sharded.routing.policy))
      << ")\n"
      << "routing table: " << prefix << ".routing ("
      << core::fmt_count(sharded.routing.owner.size()) << " owner bytes)\n\n"
      << table.str();
  return 0;
}

int cmd_serve_bench(const std::vector<std::string>& args, std::ostream& out) {
  ArgParser parser("gplus serve-bench",
                   "closed-loop load harness against the query server");
  parser.add_option("in", "",
                    "dataset or snapshot file (empty: generate "
                    "--nodes/--seed in memory)");
  parser.add_option("nodes", "100000", "users to generate when --in is empty");
  parser.add_option("seed", "42", "dataset seed when --in is empty");
  parser.add_option("requests", "1000000", "total requests to serve");
  parser.add_option("clients", "256", "closed-loop clients (1 in flight each)");
  parser.add_option("workload-seed", "1", "request-stream seed");
  parser.add_option("mix", "degree-profile",
                    "request mix: degree-profile, read, path, mixed or suggest");
  parser.add_option("zipf", "1.3", "Zipf exponent over the in-degree ranking");
  parser.add_option("queue", "4096", "bounded request-queue capacity");
  parser.add_option("cache", "65536", "result-cache entries (0 disables)");
  parser.add_option("cache-shards", "16", "result-cache shards");
  parser.add_option("deadline", "0",
                    "per-request virtual-cost budget (0 = unlimited; "
                    "deterministic units, see DESIGN.md §10)");
  parser.add_option("shards", "0",
                    "serve through a K-shard cluster router instead of one "
                    "server (0 = unsharded; see DESIGN.md §13)");
  parser.add_option("replicas", "1", "replicas per shard when --shards > 0");
  parser.add_flag("no-latency", "skip per-request latency measurement");
  parser.add_flag("metrics",
                  "append a JSON dump of the deterministic metrics registry");
  add_threads_option(parser);
  if (!parse_or_usage(parser, args, out)) return 2;
  apply_threads_option(parser);

  // --in accepts either a snapshot (served as-is, the build-once path) or
  // a dataset (snapshotted in memory first). `sniff_snapshot_magic`
  // recognizes every snapshot version and is short-read safe: a file
  // shorter than the magic (let alone the 112-byte header) is simply "not
  // a snapshot", and if it then fails to parse as a dataset the loader's
  // error names the real problem instead of serving garbage.
  serve::SnapshotBuffer snapshot = [&] {
    const std::string& in = parser.get("in");
    if (in.empty()) {
      return serve::build_snapshot(core::make_standard_dataset(
          parser.get_u64("nodes"), parser.get_u64("seed")));
    }
    std::ifstream probe(in, std::ios::binary);
    if (!probe.is_open()) {
      throw std::runtime_error("serve-bench: cannot open " + in);
    }
    if (serve::sniff_snapshot_magic(probe)) {
      return serve::load_snapshot(in);
    }
    return serve::build_snapshot(core::load_dataset(in));
  }();
  const serve::SnapshotView view(snapshot.bytes());

  serve::ServerConfig sconfig;
  sconfig.queue_capacity = parser.get_u64("queue");
  sconfig.cache_capacity = parser.get_u64("cache");
  sconfig.cache_shards = parser.get_u64("cache-shards");
  sconfig.default_cost_budget.fill(
      static_cast<std::uint32_t>(parser.get_u64("deadline")));

  // --shards K routes the same workload through the deterministic cluster
  // router (scatter-gather for ShortestPath/TopK, owner-shard dispatch for
  // the rest); the response checksum is identical to the unsharded run.
  const std::size_t shard_count = parser.get_u64("shards");
  serve::ShardedSnapshot sharded;
  std::vector<serve::SnapshotView> shard_views;
  std::vector<const serve::SnapshotView*> shard_ptrs;
  std::optional<serve::ClusterServer> cluster;
  std::optional<serve::QueryServer> server;
  if (shard_count > 0) {
    serve::ShardingOptions sopts;
    sopts.shard_count = shard_count;
    sharded = serve::split_snapshot(view, sopts);
    shard_views.reserve(shard_count);
    for (const auto& shard : sharded.shards) {
      shard_views.emplace_back(shard.bytes());
    }
    for (const auto& sv : shard_views) shard_ptrs.push_back(&sv);
    serve::ClusterConfig cconfig;
    cconfig.server = sconfig;
    cconfig.replicas = std::max<std::size_t>(1, parser.get_u64("replicas"));
    cluster.emplace(&sharded.routing, shard_ptrs, cconfig);
  } else {
    server.emplace(&view, sconfig);
  }

  serve::WorkloadConfig wconfig;
  wconfig.seed = parser.get_u64("workload-seed");
  wconfig.clients = parser.get_u64("clients");
  wconfig.requests = parser.get_u64("requests");
  wconfig.zipf_exponent = parser.get_double("zipf");
  wconfig.mix = serve::WorkloadMix::by_name(parser.get("mix"));
  wconfig.measure_latency = !parser.get_flag("no-latency");
  const auto report = cluster ? serve::run_closed_loop(*cluster, view, wconfig)
                              : serve::run_closed_loop(*server, wconfig);

  char checksum[32];
  std::snprintf(checksum, sizeof checksum, "%016llx",
                static_cast<unsigned long long>(report.checksum));
  core::TextTable table({"Metric", "Value"});
  table.add_row({"Snapshot bytes", core::fmt_count(snapshot.size())});
  table.add_row({"Workers", std::to_string(core::thread_count())});
  table.add_row({"Requests served", core::fmt_count(report.served)});
  table.add_row({"Rejected (overload)", core::fmt_count(report.rejected)});
  table.add_row({"Elapsed s", core::fmt_double(report.elapsed_s, 3)});
  table.add_row({"Throughput q/s", core::fmt_count(
                     static_cast<std::uint64_t>(report.qps))});
  if (wconfig.measure_latency) {
    table.add_row({"p50 us", core::fmt_double(report.p50_us, 2)});
    table.add_row({"p95 us", core::fmt_double(report.p95_us, 2)});
    table.add_row({"p99 us", core::fmt_double(report.p99_us, 2)});
  }
  table.add_row({"Response MB", core::fmt_double(
                     static_cast<double>(report.response_bytes) / 1e6, 1)});
  table.add_row({"Deadline exceeded",
                 core::fmt_count(report.server.deadline_exceeded)});
  table.add_row({"Cache hits", core::fmt_count(report.server.cache.hits)});
  table.add_row({"Cache misses", core::fmt_count(report.server.cache.misses)});
  table.add_row({"Cache evictions",
                 core::fmt_count(report.server.cache.evictions)});
  table.add_row({"Cache hit rate",
                 core::fmt_percent(report.server.cache.hit_rate())});
  table.add_row({"Response checksum", checksum});
  if (cluster) {
    const auto cstats = cluster->stats_snapshot();
    table.add_row({"Shards", std::to_string(cluster->shard_count())});
    table.add_row(
        {"Replicas per shard", std::to_string(cluster->replicas_per_shard())});
    table.add_row({"Scatter executions", core::fmt_count(cstats.scatter)});
    table.add_row({"Shard messages", core::fmt_count(cstats.messages)});
  }
  out << table.str();
  if (cluster) {
    core::TextTable shard_table({"Shard", "Owned nodes", "Edges", "Bytes",
                                 "Served", "Cache hits"});
    std::vector<std::uint64_t> owned(cluster->shard_count(), 0);
    for (const std::uint8_t owner : sharded.routing.owner) ++owned[owner];
    for (std::size_t s = 0; s < cluster->shard_count(); ++s) {
      serve::ServerStats replica_total;
      for (std::size_t r = 0; r < cluster->replicas_per_shard(); ++r) {
        const auto rs = cluster->replica_stats(s, r);
        replica_total.served += rs.served;
        replica_total.cache.hits += rs.cache.hits;
      }
      shard_table.add_row({std::to_string(s), core::fmt_count(owned[s]),
                           core::fmt_count(shard_views[s].edge_count()),
                           core::fmt_count(sharded.shards[s].size()),
                           core::fmt_count(replica_total.served),
                           core::fmt_count(replica_total.cache.hits)});
    }
    out << "\nper-shard (policy "
        << std::string(
               serve::sharding_policy_name(sharded.routing.policy))
        << "):\n"
        << shard_table.str();
  }
  if (parser.get_flag("metrics")) {
    out << obs::to_json(
        obs::MetricsRegistry::global().snapshot(/*deterministic_only=*/true));
  }
  return 0;
}

int cmd_metrics(const std::vector<std::string>& args, std::ostream& out) {
  ArgParser parser("gplus metrics",
                   "exercise the instrumented subsystems and dump the "
                   "metrics registry");
  parser.add_option("nodes", "20000", "users in the in-memory dataset");
  parser.add_option("seed", "42", "dataset seed");
  parser.add_option("profiles", "2000", "profiles to crawl (0 = all)");
  parser.add_option("fault-rate", "0.05",
                    "injected-fault rate for the crawl leg");
  parser.add_option("requests", "20000", "requests for the serving leg");
  parser.add_option("clients", "64", "closed-loop clients");
  parser.add_flag("json", "dump JSON instead of text");
  parser.add_flag("all",
                  "include run-dependent metrics (steal/spawn counters); "
                  "the default dump is deterministic at any --threads");
  parser.add_flag("trace", "also dump the virtual-clock trace spans");
  add_threads_option(parser);
  if (!parse_or_usage(parser, args, out)) return 2;
  apply_threads_option(parser);

  auto& trace = obs::TraceLog::global();
  if (parser.get_flag("trace")) {
    trace.clear();
    trace.set_enabled(true);
  }

  // Crawl leg: a faulty service drives the retry/backoff/degraded
  // counters, then the §2.2 estimate publishes the lost-edge gauges.
  const auto dataset = core::make_standard_dataset(parser.get_u64("nodes"),
                                                   parser.get_u64("seed"));
  service::ServiceConfig sconfig;
  const double fault_rate = parser.get_double("fault-rate");
  sconfig.faults.transient_rate = fault_rate / 2.0;
  sconfig.faults.rate_limit_rate = fault_rate / 4.0;
  sconfig.faults.truncation_rate = fault_rate / 4.0;
  sconfig.faults.slow_rate = fault_rate;
  service::SocialService svc(&dataset.graph(), dataset.profiles, sconfig);
  crawler::CrawlConfig cconfig;
  cconfig.seed_node = core::top_users(dataset, 1)[0].node;
  cconfig.max_profiles = parser.get_u64("profiles");
  const auto crawl = crawler::run_bfs_crawl(svc, cconfig);
  (void)crawler::estimate_lost_edges(svc, crawl);

  // Serving leg: snapshot the same dataset and run the closed-loop
  // harness, filling the serve.* counters and cost histograms.
  const serve::SnapshotBuffer snapshot = serve::build_snapshot(dataset);
  const serve::SnapshotView view(snapshot.bytes());
  serve::QueryServer server(&view);
  serve::WorkloadConfig wconfig;
  wconfig.requests = parser.get_u64("requests");
  wconfig.clients = parser.get_u64("clients");
  wconfig.measure_latency = false;
  (void)serve::run_closed_loop(server, wconfig);

  const auto snap = obs::MetricsRegistry::global().snapshot(
      /*deterministic_only=*/!parser.get_flag("all"));
  out << (parser.get_flag("json") ? obs::to_json(snap) : obs::to_text(snap));
  if (parser.get_flag("trace")) {
    out << trace.to_text();
    trace.set_enabled(false);
  }
  return 0;
}

namespace {

// Parses a comma-separated day list ("45,90,180") for --mode evolve.
std::vector<int> parse_day_list(const std::string& text) {
  std::vector<int> days;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        text.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!item.empty()) days.push_back(std::stoi(item));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return days;
}

}  // namespace

int cmd_motifs(const std::vector<std::string>& args, std::ostream& out) {
  ArgParser parser("gplus motifs",
                   "directed triad census, evolution and calibration");
  parser.add_option("mode", "census", "census, evolve or calibrate");
  parser.add_option("in", "",
                    "dataset file (empty: generate --nodes/--seed in memory)");
  parser.add_option("nodes", "20000", "users to generate when --in is empty");
  parser.add_option("seed", "42", "dataset seed when --in is empty");
  parser.add_option("samples", "0",
                    "wedge samples for the seeded estimator (census mode; "
                    "0 = exact census only)");
  parser.add_option("sample-seed", "7", "estimator seed");
  parser.add_flag("via-snapshot",
                  "census over an in-memory v3 compressed snapshot view "
                  "instead of the CSR graph (identical counts)");
  parser.add_option("days", "45,90,135,180",
                    "growth snapshot days (evolve mode)");
  parser.add_option("target-clustering", "0.23",
                    "target average clustering (calibrate mode)");
  parser.add_option("target-reciprocity", "0.32",
                    "target edge reciprocity (calibrate mode)");
  parser.add_option("rounds", "12", "calibration rounds (calibrate mode)");
  parser.add_option("swaps-per-edge", "0.1",
                    "swap budget per round per edge (calibrate mode)");
  add_threads_option(parser);
  if (!parse_or_usage(parser, args, out)) return 2;
  apply_threads_option(parser);

  const auto load_graph = [&]() -> graph::DiGraph {
    const std::string& in = parser.get("in");
    if (in.empty()) {
      return core::make_standard_dataset(parser.get_u64("nodes"),
                                         parser.get_u64("seed"))
          .graph();
    }
    return core::load_dataset(in).graph();
  };

  const std::string& mode = parser.get("mode");
  if (mode == "census") {
    const graph::DiGraph g = load_graph();
    algo::TriadCensus census;
    if (parser.get_flag("via-snapshot")) {
      core::Dataset dataset;
      dataset.net.graph = g;
      dataset.profiles.resize(g.node_count());
      serve::SnapshotOptions options;
      options.version = serve::kSnapshotVersion3;
      options.country_index = false;
      const serve::SnapshotBuffer snapshot =
          serve::build_snapshot(dataset, options);
      census = algo::triad_census(serve::SnapshotView(snapshot.bytes()));
    } else {
      census = algo::triad_census(g);
    }

    const std::uint64_t samples = parser.get_u64("samples");
    std::optional<algo::SampledTriadCensus> sampled;
    if (samples > 0) {
      algo::TriadSampleConfig sconfig;
      sconfig.samples = samples;
      sconfig.seed = parser.get_u64("sample-seed");
      sampled = algo::sample_triad_census(g, sconfig);
    }

    core::TextTable table(sampled
                              ? std::vector<std::string>{"Class", "Count",
                                                         "Estimated"}
                              : std::vector<std::string>{"Class", "Count"});
    for (std::size_t k = 0; k < algo::kTriadClassCount; ++k) {
      std::vector<std::string> row = {
          std::string(algo::triad_class_name(
              static_cast<algo::TriadClass>(k))),
          core::fmt_count(census[static_cast<algo::TriadClass>(k)])};
      if (sampled) {
        // 003/012/102 have no wedge, so the wedge sampler never sees them.
        row.push_back(k < 3 ? "-"
                            : core::fmt_count(static_cast<std::uint64_t>(
                                  sampled->estimated_counts[k])));
      }
      table.add_row(std::move(row));
    }
    out << table.str() << "\n";
    core::TextTable summary({"Metric", "Value"});
    summary.add_row({"Nodes", core::fmt_count(g.node_count())});
    summary.add_row({"Edges", core::fmt_count(g.edge_count())});
    summary.add_row({"Closed triads", core::fmt_count(census.closed())});
    summary.add_row({"Open wedges", core::fmt_count(census.open_wedges())});
    summary.add_row(
        {"Wedge closure", core::fmt_percent(census.wedge_closure())});
    summary.add_row(
        {"Reciprocity", core::fmt_percent(algo::global_reciprocity(g))});
    if (sampled) {
      summary.add_row({"Sampled wedges", core::fmt_count(sampled->sampled)});
      summary.add_row({"Sampled closure",
                       core::fmt_percent(sampled->closed_fraction)});
    }
    out << summary.str();
    return 0;
  }

  if (mode == "evolve") {
    evolve::GrowthConfig config;
    config.final_node_count = parser.get_u64("nodes");
    config.seed = parser.get_u64("seed");
    const evolve::GrowthSimulation sim(config);
    const auto points =
        evolve::motif_evolution(sim, parse_day_list(parser.get("days")));
    core::TextTable table({"Day", "Nodes", "Edges", "Closure", "Recip",
                           "030T", "030C", "210", "300"});
    for (const auto& p : points) {
      table.add_row({std::to_string(p.day), core::fmt_count(p.nodes),
                     core::fmt_count(p.edges),
                     core::fmt_percent(p.wedge_closure),
                     core::fmt_percent(p.reciprocity),
                     core::fmt_count(p.census[algo::TriadClass::k030T]),
                     core::fmt_count(p.census[algo::TriadClass::k030C]),
                     core::fmt_count(p.census[algo::TriadClass::k210]),
                     core::fmt_count(p.census[algo::TriadClass::k300])});
    }
    out << table.str();
    return 0;
  }

  if (mode == "calibrate") {
    const graph::DiGraph g = load_graph();
    algo::RewireObjective objective;
    objective.target_clustering = parser.get_double("target-clustering");
    objective.target_reciprocity = parser.get_double("target-reciprocity");
    algo::CalibrateConfig config;
    config.seed = parser.get_u64("seed");
    config.max_rounds = parser.get_u64("rounds");
    config.swaps_per_round_per_edge = parser.get_double("swaps-per-edge");
    const algo::CalibrationResult result =
        algo::calibrate_to_profile(g, objective, config);
    core::TextTable table({"Metric", "Initial", "Calibrated", "Target"});
    table.add_row({"Clustering", core::fmt_double(result.initial.clustering, 4),
                   core::fmt_double(result.calibrated.clustering, 4),
                   core::fmt_double(objective.target_clustering, 4)});
    table.add_row(
        {"Reciprocity", core::fmt_double(result.initial.reciprocity, 4),
         core::fmt_double(result.calibrated.reciprocity, 4),
         core::fmt_double(objective.target_reciprocity, 4)});
    table.add_row({"Objective error", core::fmt_double(result.initial_error, 4),
                   core::fmt_double(result.final_error, 4), "0"});
    out << table.str() << "\n";
    out << "rounds accepted " << result.rounds_accepted << ", reverted "
        << result.rounds_reverted << "; retargetings applied "
        << result.swaps_applied << "\n";
    return 0;
  }

  out << "error: unknown mode: " << mode
      << " (expected census, evolve or calibrate)\n";
  return 2;
}

namespace {

constexpr Command kCommands[] = {
    {"generate", "build a calibrated synthetic Google+ dataset", cmd_generate},
    {"analyze", "structural + attribute summary of a dataset", cmd_analyze},
    {"top", "top users by in-degree (Table 1 style)", cmd_top},
    {"crawl", "simulate the paper's BFS crawl against the dataset", cmd_crawl},
    {"export", "dump the edge list for other graph tools", cmd_export},
    {"report", "full markdown reproduction report", cmd_report},
    {"snapshot", "build or inspect an immutable serving snapshot", cmd_snapshot},
    {"shard", "split a snapshot into vertex shards + routing table", cmd_shard},
    {"serve-bench", "closed-loop query-serving load harness", cmd_serve_bench},
    {"metrics", "exercise the instrumented stack, dump the registry",
     cmd_metrics},
    {"motifs", "triad census, motif evolution and profile calibration",
     cmd_motifs},
};

// Usage text generated from the command table, so help and dispatch can
// never disagree.
std::string usage_text() {
  std::size_t width = 0;
  for (const auto& c : kCommands) width = std::max(width, c.name.size());
  std::string usage = "usage: gplus <command> [options]\n\ncommands:\n";
  for (const auto& c : kCommands) {
    usage += "  ";
    usage += c.name;
    usage.append(width - c.name.size() + 2, ' ');
    usage += c.summary;
    usage += "\n";
  }
  usage +=
      "\nrun `gplus <command> --help` semantics: any parse error prints the\n"
      "command's options.\n";
  return usage;
}

}  // namespace

std::span<const Command> commands() noexcept { return kCommands; }

int run_command(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << usage_text();
    return args.empty() ? 2 : 0;
  }
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  try {
    for (const auto& command : kCommands) {
      if (args[0] == command.name) return command.run(rest, out);
    }
  } catch (const std::exception& error) {
    out << "error: " << error.what() << "\n";
    return 1;
  }
  out << "error: unknown command: " << args[0] << "\n\n" << usage_text();
  return 2;
}

}  // namespace gplus::cli
