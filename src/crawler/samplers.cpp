#include "crawler/samplers.h"

#include <algorithm>
#include <unordered_set>

#include "stats/expect.h"

namespace gplus::crawler {

using graph::NodeId;

std::string_view sampler_name(SamplerKind kind) noexcept {
  switch (kind) {
    case SamplerKind::kBfs: return "BFS";
    case SamplerKind::kRandomWalk: return "Random walk";
    case SamplerKind::kMetropolisHastings: return "MHRW";
    case SamplerKind::kUniformOracle: return "Uniform (oracle)";
  }
  return "Unknown";
}

namespace {

/// Tracks distinct visits and the running degree statistic.
class VisitSet {
 public:
  explicit VisitSet(std::size_t expected) { seen_.reserve(expected * 2); }

  bool visit(NodeId u, std::uint64_t in_degree) {
    if (!seen_.insert(u).second) return false;
    order_.push_back(u);
    degree_sum_ += in_degree;
    return true;
  }

  std::size_t size() const noexcept { return order_.size(); }
  const std::vector<NodeId>& order() const noexcept { return order_; }
  std::vector<NodeId> take_order() { return std::move(order_); }
  double mean_degree() const noexcept {
    return order_.empty() ? 0.0
                          : static_cast<double>(degree_sum_) /
                                static_cast<double>(order_.size());
  }

 private:
  std::unordered_set<NodeId> seen_;
  std::vector<NodeId> order_;
  std::uint64_t degree_sum_ = 0;
};

// Undirected neighbor list via the service (both public lists merged).
std::vector<NodeId> fetch_neighbors(service::SocialService& service, NodeId u) {
  auto nbrs = service.fetch_full_list(u, service::ListKind::kInTheirCircles);
  const auto followers =
      service.fetch_full_list(u, service::ListKind::kHaveInCircles);
  nbrs.insert(nbrs.end(), followers.begin(), followers.end());
  std::sort(nbrs.begin(), nbrs.end());
  nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  return nbrs;
}

std::uint64_t displayed_degree_total(const service::ProfilePage& page) {
  return page.have_in_circles_total + page.in_their_circles_total;
}

}  // namespace

SampleResult sample_users(service::SocialService& service, SamplerKind kind,
                          const SamplerOptions& options) {
  const std::size_t universe = service.user_count();
  GPLUS_EXPECT(universe > 0, "service has no users");
  GPLUS_EXPECT(options.seed_node < universe, "seed node out of range");
  GPLUS_EXPECT(options.target_users > 0, "target must be positive");
  GPLUS_EXPECT(options.teleport >= 0.0 && options.teleport <= 1.0,
               "teleport must be a probability");

  const std::uint64_t max_steps =
      options.max_steps ? options.max_steps : 200ULL * options.target_users;
  stats::Rng rng(options.rng_seed);
  VisitSet visits(options.target_users);
  SampleResult result;
  const std::uint64_t requests_before = service.request_count();

  auto record = [&](NodeId u) {
    const auto page = service.fetch_profile(u);
    return visits.visit(u, page.have_in_circles_total);
  };

  switch (kind) {
    case SamplerKind::kUniformOracle: {
      while (visits.size() < options.target_users &&
             result.steps < max_steps) {
        ++result.steps;
        record(static_cast<NodeId>(rng.next_below(universe)));
      }
      break;
    }

    case SamplerKind::kBfs: {
      std::vector<NodeId> queue{options.seed_node};
      std::unordered_set<NodeId> enqueued{options.seed_node};
      std::size_t head = 0;
      while (head < queue.size() && visits.size() < options.target_users &&
             result.steps < max_steps) {
        ++result.steps;
        const NodeId u = queue[head++];
        record(u);
        for (NodeId v : fetch_neighbors(service, u)) {
          if (enqueued.insert(v).second) queue.push_back(v);
        }
      }
      break;
    }

    case SamplerKind::kRandomWalk:
    case SamplerKind::kMetropolisHastings: {
      NodeId current = options.seed_node;
      auto page = service.fetch_profile(current);
      visits.visit(current, page.have_in_circles_total);
      while (visits.size() < options.target_users && result.steps < max_steps) {
        ++result.steps;
        // Restarts jump to a node already discovered — a real crawler can
        // only teleport to users it has seen (ids were not enumerable).
        auto restart = [&] {
          const auto& seen = visits.order();
          current = seen[static_cast<std::size_t>(rng.next_below(seen.size()))];
          page = service.fetch_profile(current);
        };
        if (options.teleport > 0.0 && rng.next_bool(options.teleport)) {
          restart();
          continue;
        }
        const auto nbrs = fetch_neighbors(service, current);
        if (nbrs.empty()) {
          restart();  // dead end: hidden lists or an isolated account
          continue;
        }
        const NodeId proposal =
            nbrs[static_cast<std::size_t>(rng.next_below(nbrs.size()))];
        const auto proposal_page = service.fetch_profile(proposal);
        bool accept = true;
        if (kind == SamplerKind::kMetropolisHastings) {
          const double du = static_cast<double>(
              std::max<std::uint64_t>(1, displayed_degree_total(page)));
          const double dv = static_cast<double>(std::max<std::uint64_t>(
              1, displayed_degree_total(proposal_page)));
          accept = rng.next_bool(std::min(1.0, du / dv));
        }
        if (accept) {
          current = proposal;
          page = proposal_page;
          visits.visit(current, page.have_in_circles_total);
        }
      }
      break;
    }
  }

  result.requests = service.request_count() - requests_before;
  result.mean_in_degree = visits.mean_degree();
  result.users = visits.take_order();
  return result;
}

}  // namespace gplus::crawler
