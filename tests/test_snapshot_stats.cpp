// §3.3 measurements off a SnapshotView must equal the DiGraph pipeline.
//
// One seeded graph is served three ways — in-memory v2 (flat), in-memory
// v3 (compressed) and the v3 file reopened off mmap — and on every view
// the view-templated algo::approximate_neighborhood_function is bit-equal
// to its DiGraph run (directed and undirected, several precisions),
// algo::strongly_connected_components yields the same component vector,
// and the degree histograms account for every edge. Pinned values,
// recorded when the DiGraph and snapshot implementations were still
// separate code, hold on the DiGraph and on every snapshot view. The
// shared HyperLogLog register kernel is pinned against scalar oracles.
// The CTest suite runs this binary at the default and at GPLUS_THREADS=1;
// tools/run_tsan.sh races it under TSan.
#include <gtest/gtest.h>

#include <unistd.h>

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
      algo::AnfOptions options;
      options.precision = p;
      options.undirected = undirected;
      options.seed = 5;
      const auto want =
          algo::approximate_neighborhood_function(dataset().graph(), options);
      ASSERT_GT(want.iterations, 1u);

      for_each_view([&](const SnapshotView& view, const char* label) {
        SCOPED_TRACE(std::string(label) +
                     (undirected ? " undirected" : " directed") +
                     " p=" + std::to_string(p));
        const auto got = algo::approximate_neighborhood_function(view, options);
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
    algo::AnfOptions options;
    options.precision = p;
    EXPECT_THROW(algo::approximate_neighborhood_function(view, options),
                 std::invalid_argument)
        << p;
    EXPECT_THROW(
        algo::approximate_neighborhood_function(dataset().graph(), options),
        std::invalid_argument)
        << p;
  }
}

TEST_F(SnapshotStats, SccSizesMatchDiGraphScc) {
  const auto want = algo::strongly_connected_components(dataset().graph());
  ASSERT_GT(want.component_count(), 1u);
  for_each_view([&](const SnapshotView& view, const char* label) {
    SCOPED_TRACE(label);
    const auto got = algo::strongly_connected_components(view);
    EXPECT_EQ(got.component, want.component);
    EXPECT_EQ(got.sizes, want.sizes);
  });
}

// FNV-1a (64-bit) over the bytes of every value's bit pattern.
template <typename T>
std::uint64_t fnv1a(const std::vector<T>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const T& value : values) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char byte : bytes) {
      hash ^= byte;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

// HyperANF on the fixture at hash seed 5, recorded when the DiGraph
// implementation (per-node sketch objects) and the snapshot one (flat
// register planes) were separate code that agreed bit for bit. Doubles
// are exact.
struct PinnedAnf {
  bool undirected;
  unsigned precision;
  std::size_t iterations;
  std::uint64_t pairs_digest;  // fnv1a(reachable_pairs)
  double mean_distance;
  double effective_diameter;
};

constexpr PinnedAnf kPinnedAnf[] = {
    {false, 4, 8, 0xb38da353f483af91ULL, 0x1.9709bdd6885fp+1,
     0x1.ddf90c060ce15p+1},
    {false, 7, 8, 0xa79e691c00830fb1ULL, 0x1.aa3484ebbbf04p+1,
     0x1.e9fae8b15b256p+1},
    {false, 10, 8, 0x0a19b1b95b2931f1ULL, 0x1.a9708c07aac9fp+1,
     0x1.e9446050d0fbdp+1},
    {true, 4, 6, 0x3e3e0d05fd57ee0eULL, 0x1.5225ca3c34862p+1,
     0x1.75790dcc0afbfp+1},
    {true, 7, 6, 0x2e2a7caf1ac48da4ULL, 0x1.618598a515666p+1,
     0x1.7d7d05ebb21b2p+1},
    {true, 10, 7, 0x0121906ae00180a7ULL, 0x1.607b30422b87bp+1,
     0x1.7cd45de2d7e4dp+1},
};

// Tarjan on the fixture, recorded when the DiGraph and snapshot Tarjans
// were separate code that agreed on the full component vector.
constexpr std::size_t kPinnedSccCount = 513;
constexpr std::uint64_t kPinnedSccDigest = 0x915e10a2293d283eULL;  // fnv1a

TEST_F(SnapshotStats, OutputsMatchPinnedValuesOnEveryView) {
  const auto check = [](const auto& view, const char* label) {
    for (const PinnedAnf& pin : kPinnedAnf) {
      SCOPED_TRACE(std::string(label) +
                   (pin.undirected ? " undirected" : " directed") +
                   " p=" + std::to_string(pin.precision));
      algo::AnfOptions options;
      options.precision = pin.precision;
      options.undirected = pin.undirected;
      options.seed = 5;
      const auto got = algo::approximate_neighborhood_function(view, options);
      EXPECT_EQ(got.iterations, pin.iterations);
      EXPECT_EQ(fnv1a(got.reachable_pairs), pin.pairs_digest);
      EXPECT_EQ(got.mean_distance, pin.mean_distance);
      EXPECT_EQ(got.effective_diameter, pin.effective_diameter);
    }
    SCOPED_TRACE(label);
    const auto scc = algo::strongly_connected_components(view);
    EXPECT_EQ(scc.component_count(), kPinnedSccCount);
    EXPECT_EQ(fnv1a(scc.component), kPinnedSccDigest);
  };
  check(dataset().graph(), "DiGraph");
  for_each_view(check);
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
