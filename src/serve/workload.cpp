#include "serve/workload.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>

#include "serve/cluster.h"
#include "stats/rng.h"

namespace gplus::serve {

namespace {

constexpr std::size_t idx(RequestType t) { return static_cast<std::size_t>(t); }

void fnv_bytes(std::uint64_t& h, const std::uint8_t* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
}

void fnv_u32(std::uint64_t& h, std::uint32_t v) {
  std::uint8_t buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
  fnv_bytes(h, buf, 4);
}

double percentile_us(std::vector<std::uint64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0.0;
  const std::size_t at = std::min(
      sorted_ns.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted_ns.size())));
  return static_cast<double>(sorted_ns[at]) / 1000.0;
}

// One closed-loop client: an independent rng stream plus the request it
// keeps in flight (retried as-is after a rejection, so the offered
// sequence stays deterministic under overload).
struct Client {
  stats::Rng rng{0};
  Request in_flight;
  bool retrying = false;
};

// The report's ServerStats for each serving surface: a cluster reports
// the replica-summed aggregate with router-level admission counts.
ServerStats final_server_stats(const QueryServer& server) {
  return server.stats_snapshot();
}
ServerStats final_server_stats(const ClusterServer& cluster) {
  return cluster.aggregate_server_stats();
}

}  // namespace

WorkloadMix WorkloadMix::degree_profile() {
  WorkloadMix mix;
  mix.weights[idx(RequestType::kDegree)] = 0.5;
  mix.weights[idx(RequestType::kGetProfile)] = 0.5;
  return mix;
}

WorkloadMix WorkloadMix::read() {
  WorkloadMix mix;
  mix.weights[idx(RequestType::kGetProfile)] = 0.40;
  mix.weights[idx(RequestType::kGetOutCircle)] = 0.15;
  mix.weights[idx(RequestType::kGetInCircle)] = 0.15;
  mix.weights[idx(RequestType::kReciprocity)] = 0.15;
  mix.weights[idx(RequestType::kDegree)] = 0.15;
  return mix;
}

WorkloadMix WorkloadMix::path() {
  WorkloadMix mix;
  mix.weights[idx(RequestType::kGetProfile)] = 0.40;
  mix.weights[idx(RequestType::kShortestPath)] = 0.50;
  mix.weights[idx(RequestType::kTopK)] = 0.10;
  return mix;
}

WorkloadMix WorkloadMix::mixed() {
  WorkloadMix mix;
  mix.weights[idx(RequestType::kGetProfile)] = 0.35;
  mix.weights[idx(RequestType::kGetOutCircle)] = 0.12;
  mix.weights[idx(RequestType::kGetInCircle)] = 0.12;
  mix.weights[idx(RequestType::kReciprocity)] = 0.12;
  mix.weights[idx(RequestType::kDegree)] = 0.20;
  mix.weights[idx(RequestType::kShortestPath)] = 0.04;
  mix.weights[idx(RequestType::kTopK)] = 0.05;
  return mix;
}

WorkloadMix WorkloadMix::suggest() {
  WorkloadMix mix;
  mix.weights[idx(RequestType::kSuggest)] = 0.50;
  mix.weights[idx(RequestType::kGetProfile)] = 0.30;
  mix.weights[idx(RequestType::kDegree)] = 0.20;
  return mix;
}

WorkloadMix WorkloadMix::by_name(std::string_view name) {
  if (name == "degree-profile") return degree_profile();
  if (name == "read") return read();
  if (name == "path") return path();
  if (name == "mixed") return mixed();
  if (name == "suggest") return suggest();
  throw std::invalid_argument(
      "unknown workload mix: " + std::string(name) +
      " (expected degree-profile, read, path, mixed or suggest)");
}

// The closed-loop harness itself, generic over the serving surface:
// QueryServer and ClusterServer share the submit/drain/queue_capacity
// shape, so one template drives both and the checksums stay directly
// comparable (the cluster-equivalence tests rely on that).
template <typename ServerT>
LoadReport closed_loop_impl(ServerT& server, const SnapshotView& snapshot,
                            const WorkloadConfig& config) {
  const std::size_t n = snapshot.node_count();
  if (n == 0) throw std::invalid_argument("workload: empty snapshot");
  if (config.clients == 0) throw std::invalid_argument("workload: 0 clients");
  if (server.queue_capacity() == 0) {
    throw std::invalid_argument("workload: queue capacity 0 can never serve");
  }

  // In-degree ranking (descending, ties by ascending id — Table 1 order):
  // Zipf rank r maps to the r-th most-followed user.
  std::vector<graph::NodeId> ranked(n);
  std::iota(ranked.begin(), ranked.end(), graph::NodeId{0});
  std::sort(ranked.begin(), ranked.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              const auto da = snapshot.in_degree(a);
              const auto db = snapshot.in_degree(b);
              if (da != db) return da > db;
              return a < b;
            });
  const stats::ZipfSampler zipf(n, config.zipf_exponent);

  // Cumulative mix weights for a single next_double() type draw.
  std::array<double, kRequestTypeCount> cum{};
  double total_weight = 0.0;
  for (std::size_t t = 0; t < kRequestTypeCount; ++t) {
    total_weight += config.mix.weights[t];
    cum[t] = total_weight;
  }
  if (total_weight <= 0.0) {
    throw std::invalid_argument("workload: mix has no positive weight");
  }

  std::vector<Client> clients(config.clients);
  for (std::size_t c = 0; c < clients.size(); ++c) {
    std::uint64_t state = config.seed + 0x9E3779B97F4A7C15ULL * (c + 1);
    clients[c].rng = stats::Rng(stats::splitmix64_next(state));
  }

  auto next_request = [&](Client& client) {
    Request q;
    const double draw = client.rng.next_double() * total_weight;
    std::size_t t = 0;
    while (t + 1 < kRequestTypeCount && draw >= cum[t]) ++t;
    q.type = static_cast<RequestType>(t);
    q.user = ranked[zipf.sample(client.rng) - 1];
    switch (q.type) {
      case RequestType::kShortestPath:
        q.target = ranked[zipf.sample(client.rng) - 1];
        break;
      case RequestType::kGetOutCircle:
      case RequestType::kGetInCircle:
        q.limit = 100;  // small pages keep response sizes bounded
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
  };

  LoadReport report;
  std::vector<Response> responses;
  // Serving latency, per admitted request: from the clock read just
  // before the submit() that admitted it to the return of the drain()
  // that answered it — queue wait and every drain phase included.
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> admitted_at;
  admitted_at.reserve(clients.size());
  std::vector<std::uint64_t> latencies;
  latencies.reserve(config.requests);
  std::uint64_t checksum = 0xcbf29ce484222325ULL;

  const auto start = Clock::now();
  while (report.served < config.requests) {
    // Submit phase: every client offers one request (a rejected client
    // re-offers the same one — closed loop, bounded in-flight).
    admitted_at.clear();
    for (auto& client : clients) {
      if (!client.retrying) client.in_flight = next_request(client);
      const auto submitted = Clock::now();
      if (server.submit(client.in_flight) == ServeStatus::kRejected) {
        client.retrying = true;
        ++report.rejected;
      } else {
        client.retrying = false;
        admitted_at.push_back(submitted);
      }
    }
    server.drain(responses);
    const auto answered = Clock::now();
    for (const auto submitted : admitted_at) {
      latencies.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(answered -
                                                               submitted)
              .count()));
    }
    for (const Response& r : responses) {
      checksum ^= static_cast<std::uint8_t>(r.status);
      checksum *= 0x100000001b3ULL;
      fnv_u32(checksum, static_cast<std::uint32_t>(r.payload.size()));
      fnv_bytes(checksum, r.payload.data(), r.payload.size());
      report.response_bytes += r.payload.size();
      if ((r.flags & (kResponseShardDark | kResponseQuorumPartial)) != 0) {
        ++report.degraded;
      }
    }
    report.served += responses.size();
  }
  const auto elapsed = Clock::now() - start;

  report.elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  report.qps = report.elapsed_s > 0.0
                   ? static_cast<double>(report.served) / report.elapsed_s
                   : 0.0;
  std::sort(latencies.begin(), latencies.end());
  report.p50_us = percentile_us(latencies, 0.50);
  report.p95_us = percentile_us(latencies, 0.95);
  report.p99_us = percentile_us(latencies, 0.99);
  report.checksum = checksum;
  report.server = final_server_stats(server);
  return report;
}

LoadReport run_closed_loop(QueryServer& server, const WorkloadConfig& config) {
  const RequestEngine* engine = server.engine();
  if (engine == nullptr) {
    throw std::invalid_argument("workload: server degraded (no snapshot)");
  }
  return closed_loop_impl(server, engine->snapshot(), config);
}

LoadReport run_closed_loop(ClusterServer& cluster,
                           const SnapshotView& ranking_view,
                           const WorkloadConfig& config) {
  if (ranking_view.node_count() != cluster.node_count()) {
    throw std::invalid_argument(
        "workload: ranking view node count != cluster node count");
  }
  return closed_loop_impl(cluster, ranking_view, config);
}

}  // namespace gplus::serve
