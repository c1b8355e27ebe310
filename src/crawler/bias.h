// Crawl-quality analysis: BFS sampling bias (§2.2's caveat).
//
// BFS from a single seed over-samples high-degree nodes; the paper cites
// [18, 35] and warns the degree distribution may be affected. These helpers
// quantify that bias on the simulation, where — unlike the authors — we
// hold the ground truth.
#pragma once

#include <cstdint>
#include <vector>

#include "crawler/crawler.h"
#include "graph/digraph.h"

namespace gplus::crawler {

/// Comparison of the crawled sample against ground truth at one coverage
/// level.
struct BiasReport {
  double coverage = 0.0;            // crawled profiles / ground-truth nodes
  double truth_mean_in_degree = 0.0;
  /// Mean ground-truth in-degree of the crawled users.
  double sample_mean_in_degree = 0.0;
  /// Mean ground-truth in-degree of crawled users divided by the global
  /// mean: > 1 means the BFS over-sampled popular users.
  double degree_bias_ratio = 0.0;
  /// Fraction of ground-truth edges present in the crawled graph (by
  /// original-id pair).
  double edge_recall = 0.0;
};

/// Measures BFS bias for a crawl of `truth` (the crawl's original ids must
/// refer to nodes of `truth`).
BiasReport measure_bias(const graph::DiGraph& truth, const CrawlResult& crawl);

}  // namespace gplus::crawler
