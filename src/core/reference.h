// Published reference values used by the paper for cross-network comparison
// (Table 4, quoting [26] Kwak et al. for Twitter, [3, 39] Ugander/Backstrom
// et al. for Facebook, [32] Mislove et al. for Orkut, and the paper's own
// Google+ measurements).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace gplus::core {

/// One Table 4 row as printed in the paper.
struct ReferenceNetwork {
  std::string_view name;
  double nodes = 0;            // node count
  double edges = 0;            // edge count
  double crawled_fraction = 0; // share of the network the dataset covers
  double path_length = 0;      // mean shortest path (hops)
  double reciprocity = 0;      // fraction of reciprocated links
  int diameter = 0;
  std::optional<double> mean_in_degree;
  std::optional<double> mean_out_degree;
};

/// The four Table 4 rows: Google+, Facebook, Twitter, Orkut.
std::span<const ReferenceNetwork> reference_networks();

/// The paper's Google+ row.
const ReferenceNetwork& google_plus_reference();

/// Assorted headline constants quoted in the text.
struct PaperConstants {
  double twitter_reciprocity = 0.221;        // [26]
  double gplus_reciprocity = 0.32;           // §3.3.2
  double flickr_reciprocity = 0.68;          // [8]
  double yahoo360_reciprocity = 0.84;        // [25]
  double in_degree_alpha = 1.3;              // §3.3.1 fit
  double out_degree_alpha = 1.2;             // §3.3.1 fit
  double degree_fit_r_squared = 0.99;        // both fits
  double directed_mean_path = 5.9;           // §3.3.5
  int directed_mode_path = 6;
  double undirected_mean_path = 4.7;
  int undirected_mode_path = 5;
  int directed_diameter = 19;
  int undirected_diameter = 13;
  double giant_scc_nodes = 25'240'000;       // §3.3.4
  double scc_count = 9'771'696;
  double lost_edge_fraction = 0.016;         // §2.2
  std::uint64_t users_over_circle_cap = 915; // §2.2, 10,000-entry cap
  double tel_user_fraction = 0.0026;         // §3.2
  double located_fraction = 0.2675;          // §4

  /// The giant SCC as a share of the Google+ row's nodes (72%).
  double giant_scc_fraction() const {
    return giant_scc_nodes / google_plus_reference().nodes;
  }
};

/// The constants above.
const PaperConstants& paper_constants();

}  // namespace gplus::core
