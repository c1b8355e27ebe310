#include "core/geo_routing.h"

#include <algorithm>

#include "geo/coords.h"
#include "stats/descriptive.h"
#include "stats/expect.h"

namespace gplus::core {

using graph::NodeId;

RouteResult greedy_geo_route(const Dataset& ds, NodeId source, NodeId target,
                             const GeoRouteOptions& options) {
  const graph::DiGraph& g = ds.graph();
  g.check_node(source);
  g.check_node(target);
  GPLUS_EXPECT(options.max_hops > 0, "need a positive hop budget");

  const geo::LatLon destination = ds.profiles[target].home;
  RouteResult result;
  NodeId current = source;
  double current_distance =
      geo::haversine_miles(ds.profiles[current].home, destination);

  for (std::uint32_t hop = 0; hop < options.max_hops; ++hop) {
    if (current == target) {
      result.delivered = true;
      result.hops = hop;
      return result;
    }

    // Greedy step: the located contact strictly closest to the target.
    NodeId best = current;
    double best_distance = current_distance;
    bool target_adjacent = false;
    for (NodeId next : g.out_neighbors(current)) {
      if (next == target) {
        target_adjacent = true;
        break;
      }
      if (!ds.located(next)) continue;
      const double d =
          geo::haversine_miles(ds.profiles[next].home, destination);
      if (d < best_distance) {
        best_distance = d;
        best = next;
      }
    }
    if (target_adjacent) {
      result.delivered = true;
      result.hops = hop + 1;
      return result;
    }
    if (best == current) {
      // Greedy minimum. Count near-target stalls as local delivery: the
      // message reached the target's town ([29]'s success notion).
      if (current_distance <= options.local_delivery_miles) {
        result.delivered = true;
        result.hops = hop;
        return result;
      }
      result.stalled_distance_miles = current_distance;
      return result;
    }
    current = best;
    current_distance = best_distance;
  }
  result.stalled_distance_miles = current_distance;
  return result;
}

RouteResult random_geo_route(const Dataset& ds, NodeId source, NodeId target,
                             stats::Rng& rng, const GeoRouteOptions& options) {
  const graph::DiGraph& g = ds.graph();
  g.check_node(source);
  g.check_node(target);
  GPLUS_EXPECT(options.max_hops > 0, "need a positive hop budget");

  const geo::LatLon destination = ds.profiles[target].home;
  RouteResult result;
  NodeId current = source;
  for (std::uint32_t hop = 0; hop < options.max_hops; ++hop) {
    if (current == target ||
        geo::haversine_miles(ds.profiles[current].home, destination) <=
            options.local_delivery_miles) {
      result.delivered = true;
      result.hops = hop;
      return result;
    }
    // Uniform choice among located contacts (target always accepted).
    std::vector<NodeId> candidates;
    for (NodeId next : g.out_neighbors(current)) {
      if (next == target || ds.located(next)) candidates.push_back(next);
    }
    if (candidates.empty()) break;
    current = candidates[static_cast<std::size_t>(
        rng.next_below(candidates.size()))];
  }
  result.stalled_distance_miles =
      geo::haversine_miles(ds.profiles[current].home, destination);
  return result;
}

GeoRoutingStats measure_geo_routing(const Dataset& ds, std::size_t pairs,
                                    stats::Rng& rng,
                                    const GeoRouteOptions& options,
                                    RoutePolicy policy) {
  GPLUS_EXPECT(pairs > 0, "need a positive pair budget");
  std::vector<NodeId> located;
  for (NodeId u = 0; u < ds.user_count(); ++u) {
    if (ds.located(u) && ds.graph().out_degree(u) > 0) located.push_back(u);
  }
  GeoRoutingStats stats;
  if (located.size() < 2) return stats;

  double hops_sum = 0.0;
  std::vector<double> stalls;
  for (std::size_t i = 0; i < pairs; ++i) {
    const NodeId s =
        located[static_cast<std::size_t>(rng.next_below(located.size()))];
    const NodeId t =
        located[static_cast<std::size_t>(rng.next_below(located.size()))];
    if (s == t) continue;
    ++stats.attempts;
    const auto route = policy == RoutePolicy::kGreedy
                           ? greedy_geo_route(ds, s, t, options)
                           : random_geo_route(ds, s, t, rng, options);
    if (route.delivered) {
      ++stats.delivered;
      hops_sum += route.hops;
    } else {
      stalls.push_back(route.stalled_distance_miles);
    }
  }
  if (stats.attempts > 0) {
    stats.success_rate = static_cast<double>(stats.delivered) /
                         static_cast<double>(stats.attempts);
  }
  if (stats.delivered > 0) {
    stats.mean_hops_delivered = hops_sum / static_cast<double>(stats.delivered);
  }
  if (!stalls.empty()) {
    stats.median_stall_miles = stats::median(stalls);
  }
  return stats;
}

}  // namespace gplus::core
