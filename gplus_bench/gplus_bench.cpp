// gplus_bench: the repository benchmark.
//
//   gplus_bench --workload NAME [--seed S] [--seconds T] [--trace FILE]
//               [--smoke] [--work-dir DIR]
//
// Four workloads, each run in its own process (README.md in this
// directory says why each exists):
//
//   serve-hot      in-memory v2 snapshot, one QueryServer, mixed traffic
//                  whose working set fits the result cache;
//   serve-mmap     out-of-core v3 build served off mmap, mixed traffic plus
//                  friend-of-friend suggest, working set beyond the cache;
//   cluster-lossy  4 shards x 2 replicas behind a lossy transport, path
//                  traffic (scatter/gather, retries, hedges, breakers);
//   offline-stats  out-of-core v3 build, then a fixed number of §3.3
//                  analysis passes (verify, degrees, SCC, HyperANF, triad
//                  census).
//
// Every workload parameter is written out below rather than read from the
// library's presets, so a change to a preset cannot silently change what
// the benchmark measures. `--seed` seeds the request stream, the transport
// fault schedule and the HyperANF hash salt; the graph is fixed (kGraphSeed).
//
// It calls the layers only through their public functions, checks
// its own outputs (a failed check makes the run exit 1), prints every
// metric as "metric NAME VALUE UNIT", and ends with one JSON line holding
// all of it. With `--trace FILE` it also times each layer in isolation
// (the "layer battery" below) and writes its spans to FILE as JSON lines.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "algo/intersect.h"
#include "algo/motifs.h"
#include "core/dataset.h"
#include "core/parallel.h"
#include "geo/world.h"
#include "serve/cluster.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"
#include "serve/snapshot_file.h"
#include "serve/snapshot_stats.h"
#include "serve/suggest.h"
#include "stats/rng.h"
#include "synth/population.h"
#include "synth/stream_gen.h"

namespace {

using namespace gplus;
using Clock = std::chrono::steady_clock;
using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::ServeStatus;

constexpr std::size_t kTypes = serve::kRequestTypeCount;
constexpr std::size_t kMaxThreads = 4;

const Clock::time_point g_process_start = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - g_process_start)
      .count();
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

std::size_t idx(RequestType t) { return static_cast<std::size_t>(t); }

// ---------------------------------------------------------------------------
// Workload definitions.

enum class Kind { kServeHot, kServeMmap, kClusterLossy, kOfflineStats };

using Mix = std::array<double, kTypes>;

// The library's "mixed" preset as of this benchmark's introduction.
constexpr Mix kMixed = {0.35, 0.12, 0.12, 0.12, 0.20, 0.04, 0.05, 0.0};
// kMixed plus suggest traffic: every request family is exercised.
constexpr Mix kMixedSuggest = {0.35, 0.12, 0.12, 0.12, 0.20, 0.04, 0.05, 0.05};
// The library's "path" preset: ShortestPath-heavy, the scatter families.
constexpr Mix kPath = {0.40, 0.0, 0.0, 0.0, 0.0, 0.50, 0.10, 0.0};

struct Traffic {
  std::size_t clients = 0;
  double zipf = 1.3;
  Mix mix{};
  std::uint64_t warmup_requests = 0;
  // The measured phase lasts --seconds AND at least this many drain
  // rounds, so p99 always has >= 10 rounds beyond it and the checksum
  // window below is always complete.
  std::uint64_t min_rounds = 0;
  // 1 in `check_every` measured responses is re-executed and compared.
  std::uint64_t check_every = 64;
};

struct Spec {
  Kind kind = Kind::kServeHot;
  const char* name = "";
  std::size_t nodes = 0;
  bool out_of_core = false;
  Traffic traffic;
  // offline-stats: analysis passes per requested second. The pass count
  // follows --seconds, never the machine's speed, so a faster build runs
  // the same passes in less time.
  std::uint64_t passes_per_second = 0;
};

Spec make_spec(std::string_view name, bool smoke) {
  Spec s;
  if (name == "serve-hot") {
    s.kind = Kind::kServeHot;
    s.nodes = 120'000;
    s.traffic = {256, 1.3, kMixed, 1'500'000, 1100, 64};
  } else if (name == "serve-mmap") {
    s.kind = Kind::kServeMmap;
    s.nodes = 150'000;
    s.out_of_core = true;
    s.traffic = {64, 1.0, kMixedSuggest, 300'000, 1100, 64};
  } else if (name == "cluster-lossy") {
    s.kind = Kind::kClusterLossy;
    s.nodes = 60'000;
    s.traffic = {64, 1.3, kPath, 10'000, 1100, 16};
  } else if (name == "offline-stats") {
    s.kind = Kind::kOfflineStats;
    s.nodes = 30'000;
    s.out_of_core = true;
    s.passes_per_second = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "' (expected serve-hot, serve-mmap, "
                                "cluster-lossy or offline-stats)");
  }
  s.name = s.kind == Kind::kServeHot       ? "serve-hot"
           : s.kind == Kind::kServeMmap    ? "serve-mmap"
           : s.kind == Kind::kClusterLossy ? "cluster-lossy"
                                           : "offline-stats";
  if (smoke) {
    s.nodes = 6'000;
    s.traffic.warmup_requests = std::min<std::uint64_t>(
        s.traffic.warmup_requests, 2'000);
    s.traffic.min_rounds = std::min<std::uint64_t>(s.traffic.min_rounds, 40);
  }
  return s;
}

// The `serve_chaos --transport` cruising profile: light loss that retries
// and hedges are expected to mask completely.
serve::TransportConfig lossy_transport(std::uint64_t seed) {
  serve::TransportConfig t;
  t.enabled = true;
  t.seed = seed ^ 0x7E5AULL;
  t.profile.drop_rate = 0.03;
  t.profile.delay_rate = 0.10;
  t.profile.delay_min = 4;
  t.profile.delay_max = 40;
  t.profile.duplicate_rate = 0.02;
  t.profile.reorder_rate = 0.05;
  t.timeout_ticks = 24;
  // Two retries more than the library default, so that no request fails:
  // over 10 s runs on seeds 1-20, the default of 2 exhausted every attempt
  // of 2 rpcs in 7.7M (one failed request on each of seeds 6 and 9); 4
  // exhausted none in 8.2M. The retry and hedge paths run either way.
  t.max_retries = 4;
  t.hedge_ticks = 8;
  t.breaker_threshold = 4;
  t.breaker_cooldown = 6;
  return t;
}

// The graph every workload runs on. It does not follow --seed: traffic is
// Zipf over in-degree rank, so a handful of hubs take most requests, and
// their degrees swing widely from one generated graph to the next. Over
// ten graph seeds that moved throughput by 25% and p99 by 27% (IQR over
// median), which would hide any change a later optimisation could make.
constexpr std::uint64_t kGraphSeed = 42;

constexpr std::size_t kShards = 4;
constexpr std::size_t kReplicas = 2;
// Out-of-core sort buffer: small enough that even these graphs spill
// several sorted runs, so the k-way merge runs as it does at paper scale.
constexpr std::size_t kSortBufferEdges = std::size_t{1} << 19;
constexpr unsigned kAnfPrecision = 7;
constexpr int kSetupRepeats = 3;

// ---------------------------------------------------------------------------
// Report: metrics, checks, counts.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failed_checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checksum = 0xcbf29ce484222325ULL;

  void metric(std::string name, double value, std::string unit) {
    std::printf("metric %s %.9g %s\n", name.c_str(), value, unit.c_str());
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      std::printf("CHECK FAILED: %s\n", what.c_str());
      failed_checks.push_back(what);
    }
  }
};

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

template <class T>
void fnv_value(std::uint64_t& h, const T& v) {
  fnv_bytes(h, &v, sizeof(v));
}

void fnv_response(std::uint64_t& h, const Response& r) {
  fnv_value(h, static_cast<std::uint8_t>(r.status));
  fnv_value(h, r.flags);
  fnv_value(h, static_cast<std::uint32_t>(r.payload.size()));
  fnv_bytes(h, r.payload.data(), r.payload.size());
}

constexpr std::uint8_t kDegradedFlags = serve::kResponsePartial |
                                        serve::kResponseShardDark |
                                        serve::kResponseQuorumPartial;

bool response_failed(const Response& r) {
  return r.status != ServeStatus::kOk || (r.flags & kDegradedFlags) != 0;
}

// Nearest-rank percentile (the library's load harness convention).
template <class T>
double percentile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t at = std::min(
      values.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(at),
                   values.end());
  return static_cast<double>(values[at]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as JSON lines at exit.

class SpanLog {
 public:
  struct Span {
    std::uint32_t parent = 0;
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    const char* attr_key = nullptr;
    std::uint64_t attr = 0;
  };

  // Spans past `limit` are dropped (counted, not stored); begin() then
  // returns 0, which end() ignores.
  void set_limit(std::size_t limit) { limit_ = limit; }

  std::uint32_t begin(const char* name, std::uint32_t parent,
                      const char* attr_key = nullptr, std::uint64_t attr = 0) {
    return record(name, parent, now_ns(), 0, attr_key, attr);
  }
  void end(std::uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = now_ns();
  }
  std::uint32_t record(const char* name, std::uint32_t parent,
                       std::int64_t start_ns, std::int64_t end_ns,
                       const char* attr_key = nullptr, std::uint64_t attr = 0) {
    if (spans_.size() >= limit_) {
      ++dropped_;
      return 0;
    }
    spans_.push_back({parent, name, start_ns, end_ns, attr_key, attr});
    return static_cast<std::uint32_t>(spans_.size());
  }

  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"attrs\":{",
                   i + 1, s.parent, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      if (s.attr_key != nullptr) {
        std::fprintf(f, "\"%s\":%llu", s.attr_key,
                     static_cast<unsigned long long>(s.attr));
      }
      std::fprintf(f, "}}\n");
    }
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
  }

 private:
  std::vector<Span> spans_;
  std::size_t limit_ = 0;
  std::uint64_t dropped_ = 0;
};

// Records a span around a scope when a log is attached.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, std::uint32_t parent)
      : log_(log), id_(log != nullptr ? log->begin(name, parent) : 0) {}
  ~Scoped() {
    if (log_ != nullptr) log_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

// ---------------------------------------------------------------------------
// Request stream: closed-loop clients drawing Zipf over in-degree rank.

std::vector<graph::NodeId> in_degree_ranking(const serve::SnapshotView& view) {
  std::vector<graph::NodeId> ranked(view.node_count());
  std::iota(ranked.begin(), ranked.end(), graph::NodeId{0});
  std::sort(ranked.begin(), ranked.end(), [&](graph::NodeId a, graph::NodeId b) {
    const auto da = view.in_degree(a);
    const auto db = view.in_degree(b);
    return da != db ? da > db : a < b;
  });
  return ranked;
}

class RequestStream {
 public:
  RequestStream(const std::vector<graph::NodeId>& ranked,
                const stats::ZipfSampler& zipf, const Traffic& traffic,
                std::uint64_t seed)
      : ranked_(&ranked), zipf_(&zipf) {
    double total = 0.0;
    for (std::size_t t = 0; t < kTypes; ++t) {
      total += traffic.mix[t];
      cum_[t] = total;
    }
    total_ = total;
    rngs_.reserve(traffic.clients);
    for (std::size_t c = 0; c < traffic.clients; ++c) {
      std::uint64_t state = seed + 0x9E3779B97F4A7C15ULL * (c + 1);
      rngs_.emplace_back(stats::splitmix64_next(state));
    }
  }

  Request next(std::size_t client) {
    stats::Rng& rng = rngs_[client];
    const double draw = rng.next_double() * total_;
    std::size_t t = 0;
    while (t + 1 < kTypes && draw >= cum_[t]) ++t;
    return make(static_cast<RequestType>(t), rng);
  }

  // One request of the given type, with the stream's field conventions.
  Request make(RequestType type, stats::Rng& rng) const {
    Request q;
    q.type = type;
    q.user = user(rng);
    switch (type) {
      case RequestType::kShortestPath:
        q.target = user(rng);
        break;
      case RequestType::kGetOutCircle:
      case RequestType::kGetInCircle:
        q.limit = 100;
        break;
      case RequestType::kTopK:
        q.limit = 20;
        break;
      case RequestType::kSuggest:
        q.limit = 10;
        break;
      default:
        break;
    }
    return q;
  }

 private:
  graph::NodeId user(stats::Rng& rng) const {
    return (*ranked_)[zipf_->sample(rng) - 1];
  }

  const std::vector<graph::NodeId>* ranked_;
  const stats::ZipfSampler* zipf_;
  std::array<double, kTypes> cum_{};
  double total_ = 0.0;
  std::vector<stats::Rng> rngs_;
};

std::uint64_t stream_seed(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x5EEDF00DULL;
  return stats::splitmix64_next(state);
}

// ---------------------------------------------------------------------------
// Fixture: everything set-up builds, up to the first measured request.

struct StageTimes {
  double gen_s = 0.0;    // graph generation (in-memory workloads)
  double build_s = 0.0;  // snapshot build (out-of-core: includes generation)
  double open_s = 0.0;   // open/split + ranking + server construction
};

struct Fixture {
  serve::SnapshotBuffer buffer;                  // in-memory snapshot
  std::unique_ptr<serve::SnapshotView> owned_view;
  std::unique_ptr<serve::MappedSnapshot> mapped;  // out-of-core snapshot
  std::filesystem::path snapshot_path;
  const serve::SnapshotView* view = nullptr;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t sorted_runs = 0;

  serve::ShardedSnapshot sharded;
  std::vector<serve::SnapshotView> shard_views;
  std::unique_ptr<serve::ClusterServer> cluster;
  std::unique_ptr<serve::QueryServer> server;

  std::vector<graph::NodeId> ranked;
  std::unique_ptr<stats::ZipfSampler> zipf;
  StageTimes times;
};

std::unique_ptr<serve::ClusterServer> make_cluster(Fixture& f,
                                                   std::uint64_t seed) {
  f.shard_views.clear();
  f.shard_views.reserve(f.sharded.shards.size());
  for (const auto& shard : f.sharded.shards) {
    f.shard_views.emplace_back(shard.bytes());
  }
  std::vector<const serve::SnapshotView*> ptrs;
  for (const auto& v : f.shard_views) ptrs.push_back(&v);
  serve::ClusterConfig config;
  config.replicas = kReplicas;
  config.transport = lossy_transport(seed);
  return std::make_unique<serve::ClusterServer>(&f.sharded.routing, ptrs,
                                                config);
}

// The streaming generator together with the models it keeps pointers to.
struct StreamSource {
  static synth::StreamGenConfig config(std::size_t nodes) {
    synth::StreamGenConfig c;
    c.node_count = nodes;
    c.seed = kGraphSeed;
    return c;
  }
  explicit StreamSource(std::size_t nodes) : gen(config(nodes), population, world) {}
  StreamSource(const StreamSource&) = delete;
  StreamSource& operator=(const StreamSource&) = delete;

  synth::PopulationModel population;
  geo::World world;
  synth::StreamingGraphGen gen;
};

void build_out_of_core(const Spec& spec, const std::filesystem::path& work_dir,
                       Fixture& f) {
  const StreamSource source(spec.nodes);
  const synth::StreamingGraphGen& gen = source.gen;
  serve::OutOfCoreOptions options;
  options.work_dir = work_dir / "build";
  options.sort_buffer_edges = kSortBufferEdges;
  serve::OutOfCoreSnapshotBuilder builder(spec.nodes, std::move(options));
  gen.stream_edges(
      [&](graph::NodeId src, graph::NodeId dst) { builder.add_edge(src, dst); });
  for (graph::NodeId u = 0; u < spec.nodes; ++u) {
    builder.set_profile(u, gen.profile(u));
  }
  f.snapshot_path = work_dir / "graph.snap";
  const auto stats = builder.finish(f.snapshot_path);
  f.snapshot_bytes = stats.total_bytes;
  f.sorted_runs = stats.run_count;
}

std::unique_ptr<Fixture> set_up(const Spec& spec, std::uint64_t seed,
                                const std::filesystem::path& work_dir,
                                SpanLog* spans, std::uint32_t parent) {
  auto f = std::make_unique<Fixture>();
  const Scoped setup_span(spans, "setup", parent);
  std::int64_t t = now_ns();
  if (spec.out_of_core) {
    {
      const Scoped s(spans, "setup.build", setup_span.id());
      build_out_of_core(spec, work_dir, *f);
    }
    f->times.build_s = seconds_between(t, now_ns());
    t = now_ns();
    const Scoped s(spans, "setup.open", setup_span.id());
    f->mapped = std::make_unique<serve::MappedSnapshot>(f->snapshot_path);
    f->view = &f->mapped->view();
  } else {
    std::optional<core::Dataset> dataset;
    {
      const Scoped s(spans, "setup.gen", setup_span.id());
      dataset.emplace(core::make_standard_dataset(spec.nodes, kGraphSeed));
    }
    f->times.gen_s = seconds_between(t, now_ns());
    t = now_ns();
    {
      const Scoped s(spans, "setup.build", setup_span.id());
      f->buffer = serve::build_snapshot(*dataset);
    }
    dataset.reset();
    f->times.build_s = seconds_between(t, now_ns());
    t = now_ns();
    const Scoped s(spans, "setup.open", setup_span.id());
    f->owned_view = std::make_unique<serve::SnapshotView>(f->buffer.bytes());
    f->view = f->owned_view.get();
    f->snapshot_bytes = f->buffer.size();
  }
  {
    const Scoped s(spans, "setup.serve", setup_span.id());
    if (spec.kind != Kind::kOfflineStats) {
      f->ranked = in_degree_ranking(*f->view);
      f->zipf = std::make_unique<stats::ZipfSampler>(f->ranked.size(),
                                                     spec.traffic.zipf);
    }
    if (spec.kind == Kind::kServeHot || spec.kind == Kind::kServeMmap) {
      f->server = std::make_unique<serve::QueryServer>(f->view);
    } else if (spec.kind == Kind::kClusterLossy) {
      serve::ShardingOptions options;
      options.shard_count = kShards;
      f->sharded = serve::split_snapshot(*f->view, options);
      f->cluster = make_cluster(*f, seed);
    }
  }
  f->times.open_s = seconds_between(t, now_ns());
  return f;
}

// ---------------------------------------------------------------------------
// Closed-loop drive: every client keeps one request in flight; a round
// submits one request per client, then one drain answers them all.

struct Sample {
  Request request;
  ServeStatus status = ServeStatus::kOk;
  std::vector<std::uint8_t> payload;
};

struct DriveResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t measured = 0;
  std::uint64_t rounds = 0;
  double elapsed_s = 0.0;
  double rss_mib = 0.0;  // peak RSS once the fixed prefix was served
  std::vector<double> window_qps;  // per one-second window of the measured phase
  std::vector<std::uint32_t> latency_ns;  // admission to response
  std::vector<Sample> samples;
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
};

template <class Server>
DriveResult drive(Server& server, RequestStream& stream, const Traffic& traffic,
                  double seconds, bool sample_unflagged_only, Report& report,
                  SpanLog* spans, std::uint32_t parent) {
  DriveResult out;
  const std::size_t clients = traffic.clients;
  std::vector<Request> in_flight(clients);
  std::vector<std::uint8_t> retrying(clients, 0);
  std::vector<std::size_t> accepted;
  std::vector<std::int64_t> submitted_at;
  std::vector<Response> responses;
  accepted.reserve(clients);
  submitted_at.reserve(clients);
  // The checksum and the peak RSS cover the warm-up plus the first
  // min_rounds measured rounds: a fixed prefix every run completes, whatever
  // the machine speed. (The cache keeps growing after it, by as much as the
  // machine had time to serve.)
  const std::uint64_t checksum_requests =
      traffic.warmup_requests + traffic.min_rounds * clients;
  std::uint64_t answered = 0;
  std::uint64_t warm = 0;
  bool measuring = traffic.warmup_requests == 0;
  std::int64_t measure_start = now_ns();
  std::int64_t window_start = measure_start;
  std::uint64_t window_count = 0;
  // Throughput is printed per one-second window so the warm-up length can
  // be judged from any run's output.
  constexpr std::int64_t kWindowNs = 1'000'000'000;

  for (std::uint64_t round = 0;; ++round) {
    if (measuring) {
      const double elapsed = seconds_between(measure_start, now_ns());
      if (out.rounds >= traffic.min_rounds && elapsed >= seconds) break;
    }
    const std::uint32_t round_span =
        spans != nullptr ? spans->begin("round", parent, "round", round) : 0;
    const std::uint32_t submit_span =
        spans != nullptr ? spans->begin("submits", round_span) : 0;
    accepted.clear();
    submitted_at.clear();
    for (std::size_t c = 0; c < clients; ++c) {
      if (retrying[c] == 0) {
        in_flight[c] = stream.next(c);
        ++out.attempted;
      }
      const std::int64_t t0 = now_ns();
      const ServeStatus st = server.submit(in_flight[c]);
      if (st == ServeStatus::kRejected) {
        retrying[c] = 1;
        ++out.failed;  // a refused request misses any latency limit
      } else {
        retrying[c] = 0;
        accepted.push_back(c);
        submitted_at.push_back(t0);
      }
    }
    if (spans != nullptr) spans->end(submit_span);
    const std::int64_t drain_start = now_ns();
    server.drain(responses);
    const std::int64_t drain_end = now_ns();
    if (spans != nullptr) {
      spans->record("drain", round_span, drain_start, drain_end, "requests",
                    accepted.size());
      spans->end(round_span);
    }
    if (responses.size() != accepted.size()) {
      report.check(false, "drain returned " + std::to_string(responses.size()) +
                              " responses for " +
                              std::to_string(accepted.size()) +
                              " admitted requests");
    }
    for (std::size_t i = 0; i < responses.size() && i < accepted.size(); ++i) {
      const Response& r = responses[i];
      if (answered < checksum_requests) fnv_response(out.checksum, r);
      ++answered;
      const bool bad = response_failed(r);
      if (bad) ++out.failed;
      if (!measuring) continue;
      out.latency_ns.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(
          drain_end - submitted_at[i], std::numeric_limits<std::uint32_t>::max())));
      const bool eligible = !(sample_unflagged_only && bad);
      if (eligible && out.measured % traffic.check_every == 0) {
        out.samples.push_back({in_flight[accepted[i]], r.status, r.payload});
      }
      ++out.measured;
    }
    window_count += responses.size();
    if (drain_end - window_start >= kWindowNs) {
      const double rate = static_cast<double>(window_count) /
                          seconds_between(window_start, drain_end);
      std::printf("%s: %llu requests, last second %.0f req/s\n",
                  measuring ? "measured" : "warm-up",
                  static_cast<unsigned long long>(answered), rate);
      if (measuring) out.window_qps.push_back(rate);
      window_start = drain_end;
      window_count = 0;
    }
    if (measuring) {
      if (++out.rounds == traffic.min_rounds) out.rss_mib = peak_rss_mib();
    } else {
      warm += responses.size();
      if (warm >= traffic.warmup_requests) {
        measuring = true;
        measure_start = now_ns();
        window_start = measure_start;
        window_count = 0;
      }
    }
  }
  out.elapsed_s = seconds_between(measure_start, now_ns());
  return out;
}

// Re-executes the sampled requests on a standalone engine over the
// reference view; status and payload must match the served response
// byte for byte (cache hits included).
void check_samples(const std::vector<Sample>& samples,
                   const serve::SnapshotView& reference, Report& report) {
  const serve::RequestEngine engine(&reference);
  Response fresh;
  std::uint64_t mismatches = 0;
  for (const Sample& s : samples) {
    engine.execute(s.request, fresh);
    if (fresh.status != s.status || fresh.payload != s.payload) ++mismatches;
  }
  std::printf("checked %zu sampled responses against a standalone engine\n",
              samples.size());
  report.check(mismatches == 0, std::to_string(mismatches) + " of " +
                                    std::to_string(samples.size()) +
                                    " sampled responses differ from the "
                                    "standalone engine");
}

// ---------------------------------------------------------------------------
// Offline analysis pass (the §3.3 pipeline off the mmap view).

struct PassResult {
  bool ok = true;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  double degree_s = 0.0;
  double scc_s = 0.0;
  double anf_s = 0.0;
  double census_s = 0.0;
  double verify_s = 0.0;
  std::size_t anf_hops = 0;
};

PassResult analysis_pass(const serve::SnapshotView& view, std::uint64_t seed,
                         Report& report, SpanLog* spans, std::uint32_t parent) {
  PassResult p;
  const std::uint64_t n = view.node_count();
  auto fail = [&](bool ok, const std::string& what) {
    report.check(ok, what);
    p.ok = p.ok && ok;
  };

  std::int64_t t = now_ns();
  {
    const Scoped s(spans, "stats.verify", parent);
    try {
      view.verify_sections();
    } catch (const std::exception& e) {
      fail(false, std::string("verify_sections: ") + e.what());
    }
  }
  p.verify_s = seconds_between(t, now_ns());

  t = now_ns();
  serve::SnapshotDegreeStats degrees;
  {
    const Scoped s(spans, "stats.degree", parent);
    degrees = serve::snapshot_degree_stats(view);
  }
  p.degree_s = seconds_between(t, now_ns());
  std::uint64_t out_total = 0;
  std::uint64_t in_total = 0;
  for (const auto& [d, c] : degrees.out_degree_hist) out_total += d * c;
  for (const auto& [d, c] : degrees.in_degree_hist) in_total += d * c;
  fail(out_total == view.edge_count() && in_total == view.edge_count() &&
           degrees.edges == view.edge_count(),
       "degree histograms do not sum to edge_count");
  for (const auto& [d, c] : degrees.out_degree_hist) {
    fnv_value(p.digest, d);
    fnv_value(p.digest, c);
  }

  t = now_ns();
  algo::SccResult scc;
  {
    const Scoped s(spans, "stats.scc", parent);
    scc = serve::snapshot_scc(view);
  }
  p.scc_s = seconds_between(t, now_ns());
  const std::uint64_t scc_total =
      std::accumulate(scc.sizes.begin(), scc.sizes.end(), std::uint64_t{0});
  fail(scc_total == n, "SCC sizes sum to " + std::to_string(scc_total) +
                           ", not n = " + std::to_string(n));
  for (std::uint64_t size : scc.sizes) fnv_value(p.digest, size);

  t = now_ns();
  algo::NeighborhoodFunction anf;
  {
    const Scoped s(spans, "stats.anf", parent);
    serve::SnapshotAnfOptions options;
    options.precision = kAnfPrecision;
    options.undirected = true;
    options.seed = seed;
    anf = serve::snapshot_anf(view, options);
  }
  p.anf_s = seconds_between(t, now_ns());
  p.anf_hops = anf.reachable_pairs.size();
  // Hop 0 counts each node once; HyperLogLog estimates a singleton set
  // as m*ln(m/(m-1)) ~ 1.004 at p = 7, hence the tolerance.
  const double hop0 = anf.reachable_pairs.empty() ? 0.0 : anf.reachable_pairs[0];
  fail(std::fabs(hop0 - static_cast<double>(n)) <= 0.01 * static_cast<double>(n),
       "ANF hop-0 count " + std::to_string(hop0) + " != n");
  for (double v : anf.reachable_pairs) fnv_value(p.digest, v);

  t = now_ns();
  algo::TriadCensus census;
  {
    const Scoped s(spans, "stats.census", parent);
    census = algo::triad_census_of_view(view);
  }
  p.census_s = seconds_between(t, now_ns());
  const unsigned __int128 triples =
      static_cast<unsigned __int128>(n) * (n - 1) * (n - 2) / 6;
  unsigned __int128 census_total = 0;
  for (std::uint64_t c : census.counts) census_total += c;
  fail(census_total == triples, "triad classes do not sum to C(n,3)");
  for (std::uint64_t c : census.counts) fnv_value(p.digest, c);
  return p;
}

// ---------------------------------------------------------------------------
// Layer battery (--trace only): each layer driven alone over the
// workload's own snapshot and request stream, with a span per call.
// Every workload runs the whole battery, so every per-layer metric is
// measured on every workload's graph; README.md says which workload each
// metric is meant to explain.

constexpr std::uint64_t kReplayRequests = 20'000;
constexpr std::size_t kProbesPerType = 256;

// The stream a workload's battery replays. offline-stats serves no
// traffic of its own; it replays serve-mmap's traffic over its own graph.
Traffic battery_traffic(const Spec& spec) {
  return spec.kind == Kind::kOfflineStats ? make_spec("serve-mmap", false).traffic
                                          : spec.traffic;
}

// A flat copy of one row, for the intersect kernel (which takes spans).
std::vector<graph::NodeId> out_row(const serve::SnapshotView& view,
                                   graph::NodeId u) {
  std::vector<graph::NodeId> row;
  row.reserve(view.out_degree(u));
  auto scan = view.out_scan(u);
  graph::NodeId v = 0;
  while (scan.next(v)) row.push_back(v);
  return row;
}

template <class Server>
std::vector<double> replay_rounds(Server& server,
                                  const std::vector<Request>& stream,
                                  std::size_t clients, SpanLog& spans,
                                  std::uint32_t parent, const char* name,
                                  double* submit_ns,
                                  double* executed_per_drain) {
  std::vector<double> drain_ms;
  std::vector<Response> responses;
  std::int64_t submit_total = 0;
  std::uint64_t executed = 0;
  for (std::size_t at = 0; at < stream.size(); at += clients) {
    const std::size_t end = std::min(stream.size(), at + clients);
    for (std::size_t i = at; i < end; ++i) {
      const std::int64_t t0 = now_ns();
      server.submit(stream[i]);
      submit_total += now_ns() - t0;
    }
    const std::int64_t t0 = now_ns();
    server.drain(responses);
    const std::int64_t t1 = now_ns();
    spans.record(name, parent, t0, t1, "requests", end - at);
    drain_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    for (const Response& r : responses) executed += r.cost > 0 ? 1 : 0;
  }
  if (submit_ns != nullptr) {
    *submit_ns = static_cast<double>(submit_total) /
                 static_cast<double>(std::max<std::size_t>(1, stream.size()));
  }
  if (executed_per_drain != nullptr) {
    *executed_per_drain = static_cast<double>(executed) /
                          static_cast<double>(std::max<std::size_t>(1, drain_ms.size()));
  }
  return drain_ms;
}

void layer_battery(const Spec& spec, std::uint64_t seed, Fixture& f,
                   Report& report, SpanLog& spans, std::uint32_t root) {
  const serve::SnapshotView& view = *f.view;
  const Traffic traffic = battery_traffic(spec);
  if (f.ranked.empty()) f.ranked = in_degree_ranking(view);
  const stats::ZipfSampler zipf(f.ranked.size(), traffic.zipf);

  // The replayed stream: the workload's warm-up, then kReplayRequests.
  std::vector<Request> stream;
  {
    RequestStream gen(f.ranked, zipf, traffic, stream_seed(seed));
    const std::uint64_t total = traffic.warmup_requests + kReplayRequests;
    stream.reserve(total);
    while (stream.size() < total) {
      for (std::size_t c = 0; c < traffic.clients && stream.size() < total; ++c) {
        stream.push_back(gen.next(c));
      }
    }
  }
  const std::size_t warm = traffic.warmup_requests;
  const std::vector<Request> replay(stream.begin() + static_cast<long>(warm),
                                    stream.end());

  // serve/snapshot: open, verify, full-row decode of the stream's users.
  {
    const Scoped s(&spans, "battery.snapshot", root);
    std::vector<double> open_us;
    constexpr int kOpens = 32;
    for (int rep = 0; rep < 15; ++rep) {
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kOpens; ++i) {
        if (f.mapped != nullptr) {
          const serve::MappedSnapshot m(f.snapshot_path);
        } else {
          const serve::SnapshotView v(f.buffer.bytes());
        }
      }
      const std::int64_t t1 = now_ns();
      spans.record("snapshot.open", s.id(), t0, t1, "opens", kOpens);
      open_us.push_back(static_cast<double>(t1 - t0) * 1e-3 / kOpens);
    }
    report.metric("serve.snapshot.open_us", percentile(open_us, 0.5), "us");

    std::int64_t t0 = now_ns();
    view.verify_sections();
    std::int64_t t1 = now_ns();
    spans.record("snapshot.verify", s.id(), t0, t1);
    report.metric("serve.snapshot.verify_s", seconds_between(t0, t1), "s");
    report.metric("serve.snapshot.bytes_per_edge",
                  static_cast<double>(f.snapshot_bytes) /
                      static_cast<double>(std::max<std::size_t>(1, view.edge_count())),
                  "B");

    std::uint64_t entries = 0;
    std::int64_t scan_total = 0;
    for (const Request& q : replay) {
      const std::int64_t c0 = now_ns();
      for (auto scan : {view.out_scan(q.user), view.in_scan(q.user)}) {
        graph::NodeId v = 0;
        while (scan.next(v)) ++entries;
      }
      const std::int64_t c1 = now_ns();
      spans.record("snapshot.scan", s.id(), c0, c1, "user", q.user);
      scan_total += c1 - c0;
    }
    report.metric("serve.snapshot.scan_ns_per_entry",
                  static_cast<double>(scan_total) /
                      static_cast<double>(std::max<std::uint64_t>(1, entries)),
                  "ns");
    std::printf("scan: %llu entries in %zu rows\n",
                static_cast<unsigned long long>(entries), 2 * replay.size());
  }

  // serve/cache: the stream's cacheable keys into a standalone cache with
  // the server's default configuration; timings over the replayed part.
  {
    const Scoped s(&spans, "battery.cache", root);
    const serve::ServerConfig config;
    serve::ShardedLruCache cache(config.cache_capacity, config.cache_shards,
                                 "bench");
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> value(64, 0);
    std::int64_t lookup_total = 0;
    std::int64_t insert_total = 0;
    std::uint64_t lookups = 0;
    std::uint64_t inserts = 0;
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Request& q = stream[i];
      if (q.type != RequestType::kGetProfile &&
          q.type != RequestType::kShortestPath &&
          q.type != RequestType::kSuggest) {
        continue;
      }
      const std::uint64_t key = serve::request_key(q);
      const std::int64_t t0 = now_ns();
      const bool hit = cache.lookup(key, payload);
      const std::int64_t t1 = now_ns();
      if (!hit) cache.insert(key, value);
      const std::int64_t t2 = now_ns();
      if (i < warm) continue;
      spans.record("cache.lookup", s.id(), t0, t1, "hit", hit ? 1 : 0);
      lookup_total += t1 - t0;
      ++lookups;
      if (hit) {
        ++hits;
      } else {
        spans.record("cache.insert", s.id(), t1, t2);
        insert_total += t2 - t1;
        ++inserts;
      }
    }
    report.metric("serve.cache.hit_rate",
                  static_cast<double>(hits) /
                      static_cast<double>(std::max<std::uint64_t>(1, lookups)),
                  "ratio");
    report.metric("serve.cache.lookup_ns",
                  static_cast<double>(lookup_total) /
                      static_cast<double>(std::max<std::uint64_t>(1, lookups)),
                  "ns");
    report.metric("serve.cache.insert_ns",
                  static_cast<double>(insert_total) /
                      static_cast<double>(std::max<std::uint64_t>(1, inserts)),
                  "ns");
  }

  // serve/engine: the replayed stream, then kProbesPerType probes of each
  // request family, serially through a standalone engine.
  std::vector<std::pair<Request, Response>> suggest_probes;
  {
    const Scoped s(&spans, "battery.engine", root);
    const serve::RequestEngine engine(&view);
    Response r;
    std::array<std::int64_t, kTypes> stream_ns{};
    std::int64_t stream_total = 0;
    for (const Request& q : replay) {
      const std::int64_t t0 = now_ns();
      engine.execute(q, r);
      const std::int64_t t1 = now_ns();
      spans.record("engine.execute", s.id(), t0, t1, "type", idx(q.type));
      stream_ns[idx(q.type)] += t1 - t0;
      stream_total += t1 - t0;
    }
    report.metric("serve.engine.stream_exec_us",
                  static_cast<double>(stream_total) * 1e-3 /
                      static_cast<double>(replay.size()),
                  "us");
    for (std::size_t t = 0; t < kTypes; ++t) {
      std::printf("engine share %-14s %6.2f%% of replayed engine time\n",
                  std::string(serve::request_type_name(static_cast<RequestType>(t)))
                      .c_str(),
                  100.0 * static_cast<double>(stream_ns[t]) /
                      static_cast<double>(std::max<std::int64_t>(1, stream_total)));
    }

    RequestStream probe_gen(f.ranked, zipf, traffic, stream_seed(seed) ^ 0x9B0BEULL);
    for (std::size_t t = 0; t < kTypes; ++t) {
      const auto type = static_cast<RequestType>(t);
      stats::Rng rng(stream_seed(seed) + 7919 * (t + 1));
      std::int64_t total = 0;
      std::uint64_t cost = 0;
      for (std::size_t i = 0; i < kProbesPerType; ++i) {
        const Request q = probe_gen.make(type, rng);
        const std::int64_t t0 = now_ns();
        engine.execute(q, r);
        const std::int64_t t1 = now_ns();
        spans.record("engine.probe", s.id(), t0, t1, "type", t);
        total += t1 - t0;
        cost += r.cost;
        report.check(!response_failed(r), "engine probe failed");
        if (type == RequestType::kSuggest) suggest_probes.emplace_back(q, r);
      }
      const std::string name(serve::request_type_name(type));
      report.metric("serve.engine." + name + ".exec_us",
                    static_cast<double>(total) * 1e-3 / kProbesPerType, "us");
      // The other families cost a fixed 1 (or limit + 1) units by
      // construction, so only these four carry information.
      if (type == RequestType::kGetOutCircle ||
          type == RequestType::kGetInCircle ||
          type == RequestType::kShortestPath || type == RequestType::kSuggest) {
        report.metric("serve.engine." + name + ".cost",
                      static_cast<double>(cost) / kProbesPerType, "units");
      }
    }
  }

  // algo/intersect: |out(u) ∩ out(c)| for every suggested candidate c.
  {
    const Scoped s(&spans, "battery.intersect", root);
    std::int64_t total = 0;
    std::uint64_t calls = 0;
    std::uint64_t elems = 0;
    std::uint64_t sink = 0;
    for (const auto& [q, r] : suggest_probes) {
      const auto& p = r.payload;
      if (p.size() < serve::kSuggestHeaderBytes) continue;
      std::uint32_t count = 0;
      std::memcpy(&count, p.data() + 4, 4);
      const std::vector<graph::NodeId> mine = out_row(view, q.user);
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::size_t at =
            serve::kSuggestHeaderBytes + i * serve::kSuggestEntryBytes;
        if (at + 4 > p.size()) break;
        graph::NodeId c = 0;
        std::memcpy(&c, p.data() + at, 4);
        const std::vector<graph::NodeId> theirs = out_row(view, c);
        const std::int64_t t0 = now_ns();
        sink += algo::intersect_count(mine, theirs);
        const std::int64_t t1 = now_ns();
        spans.record("intersect.count", s.id(), t0, t1, "elems",
                     mine.size() + theirs.size());
        total += t1 - t0;
        ++calls;
        elems += mine.size() + theirs.size();
      }
    }
    const double n = static_cast<double>(std::max<std::uint64_t>(1, calls));
    report.metric("algo.intersect.ns_per_call", static_cast<double>(total) / n,
                  "ns");
    report.metric("algo.intersect.elems_per_call",
                  static_cast<double>(elems) / n, "count");
    std::printf("intersect: %llu calls, %llu common\n",
                static_cast<unsigned long long>(calls),
                static_cast<unsigned long long>(sink));
  }

  // serve/server, serve/cluster, serve/transport: the replayed rounds
  // through a fresh QueryServer and a fresh lossy 4x2 cluster over the
  // same graph (both start cold, so their drain times compare).
  {
    const Scoped s(&spans, "battery.serve", root);
    serve::QueryServer server(&view);
    double submit_ns = 0.0;
    double executed_per_drain = 0.0;
    const auto server_ms =
        replay_rounds(server, replay, traffic.clients, spans, s.id(),
                      "server.drain", &submit_ns, &executed_per_drain);
    report.metric("serve.server.submit_ns", submit_ns, "ns");
    report.metric("serve.server.drain_ms.p50", percentile(server_ms, 0.5), "ms");
    report.metric("serve.server.drain_ms.p99", percentile(server_ms, 0.99), "ms");
    report.metric("serve.server.executed_per_drain", executed_per_drain,
                  "count");

    Fixture split;
    std::int64_t t0 = now_ns();
    {
      serve::ShardingOptions options;
      options.shard_count = kShards;
      split.sharded = serve::split_snapshot(view, options);
    }
    std::int64_t t1 = now_ns();
    spans.record("snapshot_build.split", s.id(), t0, t1);
    report.metric("serve.snapshot_build.split_s", seconds_between(t0, t1), "s");
    auto cluster = make_cluster(split, seed);
    const auto cluster_ms = replay_rounds(*cluster, replay, traffic.clients,
                                          spans, s.id(), "cluster.drain",
                                          nullptr, nullptr);
    const auto stats = cluster->stats_snapshot();
    const auto& t = cluster->transport_stats();
    const double reqs = static_cast<double>(replay.size());
    report.metric("serve.cluster.drain_ms.p50", percentile(cluster_ms, 0.5), "ms");
    report.metric("serve.cluster.drain_ms.p99", percentile(cluster_ms, 0.99),
                  "ms");
    report.metric("serve.cluster.scatter_per_req",
                  static_cast<double>(stats.scatter) / reqs, "ratio");
    report.metric("serve.cluster.messages_per_req",
                  static_cast<double>(stats.messages) / reqs, "count");
    const double server_total =
        std::accumulate(server_ms.begin(), server_ms.end(), 0.0);
    const double cluster_total =
        std::accumulate(cluster_ms.begin(), cluster_ms.end(), 0.0);
    report.metric("serve.cluster.overhead_frac",
                  1.0 - server_total / std::max(1e-9, cluster_total), "ratio");
    report.metric("serve.transport.attempts_per_rpc",
                  static_cast<double>(t.attempts) /
                      static_cast<double>(std::max<std::uint64_t>(1, t.rpcs)),
                  "ratio");
    report.metric("serve.transport.retries", static_cast<double>(t.retries),
                  "count");
    report.metric("serve.transport.hedges", static_cast<double>(t.hedges),
                  "count");
    report.metric("serve.transport.hedge_wins",
                  static_cast<double>(t.hedge_wins), "count");
    report.metric("serve.transport.ticks_per_req",
                  static_cast<double>(t.ticks) / reqs, "ticks");
    std::printf("transport: %llu rpcs, %llu failed, %llu breaker opens\n",
                static_cast<unsigned long long>(t.rpcs),
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.breaker_open));
  }

  // serve/snapshot_stats and algo/motifs: one analysis pass.
  {
    const Scoped s(&spans, "battery.stats", root);
    const PassResult p = analysis_pass(view, seed, report, &spans, s.id());
    report.metric("serve.snapshot_stats.degree_s", p.degree_s, "s");
    report.metric("serve.snapshot_stats.scc_s", p.scc_s, "s");
    report.metric("serve.snapshot_stats.anf_s", p.anf_s, "s");
    report.metric("serve.snapshot_stats.anf_hops",
                  static_cast<double>(p.anf_hops), "count");
    report.metric("algo.motifs.census_s", p.census_s, "s");
  }
}

// Graph generation alone: for out-of-core workloads the build interleaves
// it with ingest, so it is timed as a separate pass that discards its output.
double graph_gen_s(const Spec& spec, const Fixture& f, SpanLog& spans,
                   std::uint32_t root) {
  if (!spec.out_of_core) return f.times.gen_s;
  const Scoped s(&spans, "battery.gen", root);
  const std::int64_t t0 = now_ns();
  const StreamSource source(spec.nodes);
  const synth::StreamingGraphGen& gen = source.gen;
  const std::uint64_t edges =
      gen.stream_edges([](graph::NodeId, graph::NodeId) {});
  std::uint64_t located = 0;
  for (graph::NodeId u = 0; u < spec.nodes; ++u) {
    located += gen.profile(u).is_located() ? 1 : 0;
  }
  std::printf("generation: %llu edges emitted, %llu located users\n",
              static_cast<unsigned long long>(edges),
              static_cast<unsigned long long>(located));
  return seconds_between(t0, now_ns());
}

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  std::string trace_path;
  std::string work_dir = "gplus_bench_work";
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "gplus_bench: %s\n"
               "usage: gplus_bench --workload serve-hot|serve-mmap|"
               "cluster-lossy|offline-stats [--seed S] [--seconds T] "
               "[--trace FILE] [--smoke] [--work-dir DIR]\n",
               error.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* raw) {
  if (raw == nullptr || *raw == '\0') usage(flag + " needs a value");
  std::uint64_t v = 0;
  for (const char* p = raw; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') usage(flag + ": not a whole number: " + raw);
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    if (v > (~std::uint64_t{0} - digit) / 10) usage(flag + ": too large: " + raw);
    v = v * 10 + digit;
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (value == nullptr) usage(arg + " needs a value");
    ++i;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = parse_u64(arg, value);
    } else if (arg == "--seconds") {
      const std::uint64_t s = parse_u64(arg, value);
      if (s == 0 || s > 600) usage("--seconds must be in [1, 600]");
      o.seconds = static_cast<double>(s);
    } else if (arg == "--trace") {
      o.trace_path = value;
    } else if (arg == "--work-dir") {
      o.work_dir = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.smoke) o.seconds = std::min(o.seconds, 0.3);
  return o;
}

void write_json(std::FILE* f, const Options& o, const Spec& spec,
                const Report& report) {
  std::fprintf(f,
               "{\"workload\":\"%s\",\"seed\":%llu,\"threads\":%zu,"
               "\"nodes\":%zu,\"correct\":%s,\"attempted\":%llu,"
               "\"failed\":%llu,\"checksum\":\"%016llx\",\"metrics\":{",
               spec.name, static_cast<unsigned long long>(o.seed),
               core::thread_count(), spec.nodes,
               report.failed_checks.empty() ? "true" : "false",
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed),
               static_cast<unsigned long long>(report.checksum));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::fprintf(f, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                 i == 0 ? "" : ",", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fprintf(f, "}}\n");
}

int run(const Options& o) {
  const Spec spec = make_spec(o.workload, o.smoke);
  core::set_thread_count(std::min(core::thread_count(), kMaxThreads));
  const bool tracing = !o.trace_path.empty();
  // Work files live in a per-process directory, removed at exit.
  const std::filesystem::path work_dir =
      std::filesystem::path(o.work_dir) /
      (std::string(spec.name) + "-" + std::to_string(::getpid()));
  std::filesystem::create_directories(work_dir);
  struct RemoveOnExit {
    std::filesystem::path dir;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } cleanup{work_dir};

  std::printf("gplus_bench %s: seed %llu, %zu nodes, %zu threads, %.0f s%s%s\n",
              spec.name, static_cast<unsigned long long>(o.seed), spec.nodes,
              core::thread_count(), o.seconds, o.smoke ? ", smoke" : "",
              tracing ? ", traced" : "");

  SpanLog spans;
  // Drive-phase spans (three per drain round) are capped so a long run
  // keeps a bounded trace; the battery gets its own allowance on top.
  constexpr std::size_t kDriveSpanLimit = 300'000;
  constexpr std::size_t kBatterySpanLimit = 300'000;
  spans.set_limit(kDriveSpanLimit);
  SpanLog* log = tracing ? &spans : nullptr;
  const std::uint32_t root = tracing ? spans.begin("run", 0) : 0;

  Report report;
  // Set-up runs kSetupRepeats times (once when traced, which does not
  // report setup_s); setup_s is the median, the last fixture serves the
  // traffic.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> f;
  const int repeats = o.smoke || tracing ? 1 : kSetupRepeats;
  for (int rep = 0; rep < repeats; ++rep) {
    f.reset();
    std::error_code ec;
    std::filesystem::remove_all(work_dir / "build", ec);
    const std::int64_t t0 = now_ns();
    f = set_up(spec, o.seed, work_dir, rep + 1 == repeats ? log : nullptr, root);
    setup_s.push_back(seconds_between(t0, now_ns()));
    std::printf("setup %d: %.3f s (gen %.3f, build %.3f, open+serve %.3f)\n",
                rep + 1, setup_s.back(), f->times.gen_s, f->times.build_s,
                f->times.open_s);
  }
  std::printf("snapshot: %zu nodes, %zu edges, %llu bytes, v%u, %llu sorted runs\n",
              f->view->node_count(), f->view->edge_count(),
              static_cast<unsigned long long>(f->snapshot_bytes),
              f->view->version(),
              static_cast<unsigned long long>(f->sorted_runs));

  // Measured phase.
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rss_mib = 0.0;
  const std::uint32_t drive_span = tracing ? spans.begin("drive", root) : 0;
  if (spec.kind == Kind::kOfflineStats) {
    const auto passes = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::llround(
               static_cast<double>(spec.passes_per_second) * o.seconds)));
    std::vector<double> pass_ms;
    const std::int64_t start = now_ns();
    while (pass_ms.size() < passes) {
      const std::uint32_t pass_span =
          tracing ? spans.begin("pass", drive_span, "pass", pass_ms.size()) : 0;
      const std::int64_t t0 = now_ns();
      const PassResult p = analysis_pass(*f->view, o.seed, report, log, pass_span);
      pass_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      if (tracing) spans.end(pass_span);
      ++report.attempted;
      if (!p.ok) ++report.failed;
      if (pass_ms.size() == 1) {
        report.checksum = p.digest;
        std::printf("pass 1: verify %.3f s, degree %.3f s, scc %.3f s, anf %.3f s "
                    "(%zu hops), census %.3f s\n",
                    p.verify_s, p.degree_s, p.scc_s, p.anf_s, p.anf_hops,
                    p.census_s);
      }
      report.check(p.digest == report.checksum,
                   "analysis pass results differ between passes");
    }
    const double elapsed = seconds_between(start, now_ns());
    rss_mib = peak_rss_mib();
    qps = static_cast<double>(pass_ms.size()) / elapsed;
    p50_ms = percentile(pass_ms, 0.5);
    // Too few passes for a p99 with samples beyond it: this is the slowest
    // pass, the maximum of a count that does not depend on machine speed.
    p99_ms = *std::max_element(pass_ms.begin(), pass_ms.end());
    std::printf("measured: %zu analysis passes in %.2f s; pass ms:",
                pass_ms.size(), elapsed);
    for (double ms : pass_ms) std::printf(" %.0f", ms);
    std::printf("\n");
  } else {
    RequestStream stream(f->ranked, *f->zipf, spec.traffic, stream_seed(o.seed));
    DriveResult d;
    const bool cluster = spec.kind == Kind::kClusterLossy;
    if (cluster) {
      d = drive(*f->cluster, stream, spec.traffic, o.seconds, true, report, log,
                drive_span);
    } else {
      d = drive(*f->server, stream, spec.traffic, o.seconds, false, report, log,
                drive_span);
    }
    report.attempted = d.attempted;
    report.failed = d.failed;
    report.checksum = d.checksum;
    rss_mib = d.rss_mib;
    // The median one-second window: a slowdown on the shared host that
    // covers less than half the measured phase does not move it.
    qps = d.window_qps.size() >= 3 ? percentile(d.window_qps, 0.5)
                                   : static_cast<double>(d.measured) / d.elapsed_s;
    p50_ms = percentile(d.latency_ns, 0.5) * 1e-6;
    p99_ms = percentile(d.latency_ns, 0.99) * 1e-6;
    std::printf("measured: %llu requests in %llu drain rounds over %.2f s "
                "(%llu rounds beyond p99)\n",
                static_cast<unsigned long long>(d.measured),
                static_cast<unsigned long long>(d.rounds), d.elapsed_s,
                static_cast<unsigned long long>(d.rounds / 100));
    if (cluster) {
      const auto& t = f->cluster->transport_stats();
      const auto c = f->cluster->stats_snapshot();
      std::printf("cluster: scatter %llu, messages %llu, rpcs %llu, retries "
                  "%llu, hedges %llu, failed rpcs %llu, quorum answers %llu\n",
                  static_cast<unsigned long long>(c.scatter),
                  static_cast<unsigned long long>(c.messages),
                  static_cast<unsigned long long>(t.rpcs),
                  static_cast<unsigned long long>(t.retries),
                  static_cast<unsigned long long>(t.hedges),
                  static_cast<unsigned long long>(t.failed),
                  static_cast<unsigned long long>(c.quorum_answers));
    } else {
      const auto stats = f->server->stats_snapshot();
      std::printf("server: cache hit rate %.3f, evictions %llu\n",
                  stats.cache.hit_rate(),
                  static_cast<unsigned long long>(stats.cache.evictions));
    }
    const Scoped check_span(log, "check", drive_span);
    check_samples(d.samples, *f->view, report);
  }
  if (tracing) spans.end(drive_span);

  if (!tracing) {
    report.metric("setup_s", percentile(setup_s, 0.5), "s");
    report.metric("peak_rss_mib", rss_mib, "MiB");
    report.metric("qps", qps, "1/s");
    report.metric("lat_p50_ms", p50_ms, "ms");
    report.metric("lat_p99_ms", p99_ms, "ms");
  } else {
    std::printf("traced qps %.1f (compare an untraced run for the overhead)\n",
                qps);
    spans.set_limit(spans.size() + kBatterySpanLimit);
    const std::uint32_t battery = spans.begin("battery", root);
    report.metric("synth.graph_gen_s", graph_gen_s(spec, *f, spans, battery),
                  "s");
    report.metric("serve.snapshot_build.build_s", f->times.build_s, "s");
    layer_battery(spec, o.seed, *f, report, spans, battery);
    spans.end(battery);
    spans.end(root);
    spans.write(o.trace_path);
    std::printf("wrote %zu spans to %s (%llu dropped past the cap)\n",
                spans.size(), o.trace_path.c_str(),
                static_cast<unsigned long long>(spans.dropped()));
  }

  std::printf("checksum %016llx\n", static_cast<unsigned long long>(report.checksum));
  write_json(stdout, o, spec, report);
  return report.failed_checks.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  try {
    return run(options);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gplus_bench: %s\n", e.what());
    return 1;
  }
}
