// §3.3 measurements off a SnapshotView must equal the DiGraph pipeline.
//
// One seeded graph is served three ways — in-memory v2 (flat), in-memory
// v3 (compressed) and the v3 file reopened off mmap — and on every view:
// snapshot_anf is bit-equal to algo::approximate_neighborhood_function
// (directed and undirected, several precisions), snapshot_scc finds the
// same component sizes as algo::strongly_connected_components, and the
// degree histograms account for every edge. The shared HyperLogLog
// register kernel is pinned against scalar oracles. The CTest suite runs
// this binary at the default and at GPLUS_THREADS=1; tools/run_tsan.sh
// races it under TSan.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "algo/anf.h"
#include "algo/scc.h"
#include "core/dataset.h"
#include "serve/snapshot.h"
#include "serve/snapshot_file.h"
#include "serve/snapshot_stats.h"
#include "stats/rng.h"

namespace gplus::serve {
namespace {

class SnapshotStats : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 2'000;

  static const core::Dataset& dataset() {
    static const core::Dataset instance =
        core::make_standard_dataset(kNodes, 11);
    return instance;
  }
  static const SnapshotBuffer& v2() {
    static const SnapshotBuffer instance = build_snapshot(dataset());
    return instance;
  }
  static const SnapshotBuffer& v3() {
    static const SnapshotBuffer instance = [] {
      SnapshotOptions options;
      options.version = kSnapshotVersion3;
      return build_snapshot(dataset(), options);
    }();
    return instance;
  }

  /// Runs `check(view, label)` on the v2, v3 and mmap-ed v3 views. The
  /// scratch path is unique to this process: ctest -j runs the default and
  /// GPLUS_THREADS=1 variants of a case concurrently.
  template <typename Check>
  static void for_each_view(const Check& check) {
    check(SnapshotView(v2().bytes()), "v2");
    check(SnapshotView(v3().bytes()), "v3");
    const auto path = std::filesystem::temp_directory_path() /
                      ("gplus_snapshot_stats_" + std::to_string(::getpid()) +
                       ".snap");
    save_snapshot(v3(), path);
    {
      MappedSnapshot mapped(path);
      check(mapped.view(), "v3 mmap");
    }
    std::filesystem::remove(path);
  }
};

TEST_F(SnapshotStats, AnfIsBitEqualToDiGraphAnf) {
  for (const bool undirected : {false, true}) {
    for (const unsigned p : {4u, 7u, 10u}) {
      algo::AnfOptions want_options;
      want_options.precision = p;
      want_options.undirected = undirected;
      want_options.seed = 5;
      const auto want = algo::approximate_neighborhood_function(
          dataset().graph(), want_options);
      ASSERT_GT(want.iterations, 1u);

      SnapshotAnfOptions options;
      options.precision = p;
      options.undirected = undirected;
      options.seed = 5;
      for_each_view([&](const SnapshotView& view, const char* label) {
        SCOPED_TRACE(std::string(label) +
                     (undirected ? " undirected" : " directed") +
                     " p=" + std::to_string(p));
        const auto got = snapshot_anf(view, options);
        ASSERT_EQ(got.reachable_pairs.size(), want.reachable_pairs.size());
        for (std::size_t h = 0; h < want.reachable_pairs.size(); ++h) {
          EXPECT_EQ(got.reachable_pairs[h], want.reachable_pairs[h])
              << "hop " << h;
        }
        EXPECT_EQ(got.iterations, want.iterations);
        EXPECT_EQ(got.mean_distance, want.mean_distance);
        EXPECT_EQ(got.effective_diameter, want.effective_diameter);
      });
    }
  }
}

TEST_F(SnapshotStats, AnfRejectsPrecisionOutsideRange) {
  const SnapshotView view(v2().bytes());
  for (const unsigned p : {0u, 3u, 17u, 64u}) {
    SnapshotAnfOptions options;
    options.precision = p;
    EXPECT_THROW(snapshot_anf(view, options), std::invalid_argument) << p;
  }
}

TEST_F(SnapshotStats, SccSizesMatchDiGraphScc) {
  auto want = algo::strongly_connected_components(dataset().graph()).sizes;
  std::sort(want.begin(), want.end());
  ASSERT_GT(want.size(), 1u);
  for_each_view([&](const SnapshotView& view, const char* label) {
    SCOPED_TRACE(label);
    const auto got = snapshot_scc(view);
    ASSERT_EQ(got.component.size(), view.node_count());
    auto sizes = got.sizes;
    std::sort(sizes.begin(), sizes.end());
    EXPECT_EQ(sizes, want);
  });
}

TEST_F(SnapshotStats, DegreeHistogramsSumToEdgeCount) {
  for_each_view([&](const SnapshotView& view, const char* label) {
    SCOPED_TRACE(label);
    const auto stats = snapshot_degree_stats(view);
    EXPECT_EQ(stats.nodes, view.node_count());
    EXPECT_EQ(stats.edges, view.edge_count());
    EXPECT_EQ(stats.edges, dataset().graph().edge_count());
    for (const auto* hist : {&stats.out_degree_hist, &stats.in_degree_hist}) {
      std::uint64_t nodes = 0;
      std::uint64_t arcs = 0;
      for (const auto& [degree, count] : *hist) {
        nodes += count;
        arcs += degree * count;
      }
      EXPECT_EQ(nodes, view.node_count());
      EXPECT_EQ(arcs, view.edge_count());
    }
    EXPECT_EQ(stats.out_degree_hist.back().first, stats.max_out_degree);
    EXPECT_EQ(stats.in_degree_hist.back().first, stats.max_in_degree);
  });
}

// Scalar oracle: the register-wise max with a per-register compare.
bool oracle_merge(std::vector<std::uint8_t>& into,
                  const std::vector<std::uint8_t>& from) {
  bool changed = false;
  for (std::size_t i = 0; i < into.size(); ++i) {
    if (from[i] > into[i]) {
      into[i] = from[i];
      changed = true;
    }
  }
  return changed;
}

// Copies `into` to `offset` bytes and `from` to `offset + 1` bytes past a
// 16-byte boundary (heap blocks are 16-aligned), merges there, and checks
// registers and flag against the oracle.
void expect_merge_matches_oracle(const std::vector<std::uint8_t>& into,
                                 const std::vector<std::uint8_t>& from,
                                 std::size_t offset) {
  const std::size_t m = into.size();
  std::vector<std::uint8_t> into_buf(m + 32);
  std::vector<std::uint8_t> from_buf(m + 32);
  std::memcpy(into_buf.data() + offset, into.data(), m);
  std::memcpy(from_buf.data() + offset + 1, from.data(), m);
  std::vector<std::uint8_t> want = into;
  const bool want_changed = oracle_merge(want, from);
  const bool changed = algo::merge_registers(into_buf.data() + offset,
                                             from_buf.data() + offset + 1, m);
  EXPECT_EQ(changed, want_changed) << "m=" << m << " offset=" << offset;
  EXPECT_EQ(std::memcmp(into_buf.data() + offset, want.data(), m), 0)
      << "m=" << m << " offset=" << offset;
}

TEST(RegisterKernel, MergeMatchesScalarOracle) {
  stats::Rng rng(17);
  for (std::size_t m = 16; m <= 65536; m *= 2) {
    std::vector<std::uint8_t> base(m);
    for (auto& r : base) r = static_cast<std::uint8_t>(1 + rng.next_below(60));
    std::vector<std::uint8_t> lower(m);
    for (std::size_t i = 0; i < m; ++i) {
      lower[i] = static_cast<std::uint8_t>(rng.next_below(base[i]));
    }
    std::vector<std::uint8_t> mixed(m);
    for (auto& r : mixed) r = static_cast<std::uint8_t>(rng.next_below(62));

    for (const std::size_t offset : {0u, 1u, 7u, 15u}) {
      expect_merge_matches_oracle(base, base, offset);   // equal: unchanged
      expect_merge_matches_oracle(base, lower, offset);  // all less: unchanged
      expect_merge_matches_oracle(base, mixed, offset);  // some greater
      expect_merge_matches_oracle(lower, base, offset);  // all greater
    }
    // Exactly one register greater, at the edges and inside every 16-byte
    // lane position.
    std::vector<std::size_t> positions = {0, m - 1};
    for (std::size_t lane = 0; lane < 16; ++lane) {
      positions.push_back((rng.next_below(m / 16) * 16) + lane);
    }
    for (const std::size_t at : positions) {
      std::vector<std::uint8_t> one = base;
      ++one[at];
      expect_merge_matches_oracle(base, one, at % 16);
    }
  }
}

TEST(RegisterKernel, EstimateMatchesPowOracle) {
  // Every register value, alone and mixed: the exponent-field 2^-r must
  // give the same doubles as std::pow, so the sums agree bit for bit.
  for (const std::size_t m : {16u, 128u, 1024u}) {
    std::vector<std::uint8_t> regs(m, 0);
    for (unsigned r = 0; r < 256; ++r) {
      regs[r % m] = static_cast<std::uint8_t>(r);
      const auto md = static_cast<double>(m);
      const double alpha = md <= 16   ? 0.673
                           : md <= 32 ? 0.697
                           : md <= 64 ? 0.709
                                      : 0.7213 / (1.0 + 1.079 / md);
      double inverse_sum = 0.0;
      std::size_t zeros = 0;
      for (const std::uint8_t x : regs) {
        inverse_sum += std::pow(2.0, -static_cast<double>(x));
        zeros += x == 0;
      }
      double want = alpha * md * md / inverse_sum;
      if (want <= 2.5 * md && zeros > 0) {
        want = md * std::log(md / static_cast<double>(zeros));
      }
      EXPECT_EQ(algo::estimate_registers(regs.data(), m), want)
          << "m=" << m << " r=" << r;
    }
  }
}

}  // namespace
}  // namespace gplus::serve
