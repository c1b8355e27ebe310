// v2 / v3 serving equivalence: the compressed format is a storage
// decision, not a behavior change.
//
// One seeded graph is built four ways — v2 flat, v3 compressed (in
// memory), v3 out-of-core (streamed through sorted runs to disk) and the
// same v3 file reopened off mmap — and every engine request family must
// produce byte-identical (status, flags, payload) across all of them,
// including paging edges, deadline-clipped partials and error statuses.
// The out-of-core file must equal the in-memory v3 bytes exactly, and v3
// emission must be bit-stable across GPLUS_THREADS (the CTest suite runs
// this binary at the default and at GPLUS_THREADS=1; tools/run_tsan.sh
// races it under TSan).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "algo/motifs.h"
#include "core/dataset.h"
#include "core/parallel.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_build.h"
#include "serve/snapshot_file.h"

namespace gplus::serve {
namespace {

class SnapshotEquivalence : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 2'500;

  /// Scratch path unique to this process: ctest -j runs the default and
  /// GPLUS_THREADS=1 variants of a case concurrently.
  static std::filesystem::path scratch(const std::string& stem) {
    return std::filesystem::temp_directory_path() /
           (stem + "_" + std::to_string(::getpid()) + ".snap");
  }

  static const core::Dataset& dataset() {
    static const core::Dataset instance = core::make_standard_dataset(kNodes, 7);
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

  /// Streams the dataset's graph + profiles through the out-of-core
  /// builder into `path` (fresh scratch dir next to it).
  static OutOfCoreStats build_out_of_core(const std::filesystem::path& path) {
    OutOfCoreOptions options;
    options.work_dir = path.string() + ".work";
    options.sort_buffer_edges = 4'096;  // force several runs + a real merge
    OutOfCoreSnapshotBuilder builder(dataset().graph().node_count(),
                                     std::move(options));
    const auto& g = dataset().graph();
    for (graph::NodeId u = 0; u < g.node_count(); ++u) {
      for (const graph::NodeId v : g.out_neighbors(u)) builder.add_edge(u, v);
      builder.set_profile(u, dataset().profiles[u]);
    }
    return builder.finish(path);
  }
};

TEST_F(SnapshotEquivalence, OutOfCoreFileEqualsInMemoryV3Bytes) {
  const auto path = scratch("gplus_equiv");
  const auto stats = build_out_of_core(path);
  EXPECT_GT(stats.run_count, 1u) << "sort buffer did not force a merge";
  EXPECT_EQ(stats.edge_count, dataset().graph().edge_count());
  const SnapshotBuffer from_disk = load_snapshot(path);
  ASSERT_EQ(from_disk.size(), v3().size());
  EXPECT_EQ(std::memcmp(from_disk.bytes().data(), v3().bytes().data(),
                        v3().size()),
            0)
      << "out-of-core build diverged from the in-memory v3 builder";
  std::filesystem::remove(path);
}

TEST_F(SnapshotEquivalence, V3EmissionIsThreadCountInvariant) {
  core::set_thread_count(1);
  SnapshotOptions options;
  options.version = kSnapshotVersion3;
  const SnapshotBuffer serial = build_snapshot(dataset(), options);
  core::set_thread_count(4);
  const SnapshotBuffer threaded = build_snapshot(dataset(), options);
  core::set_thread_count(0);
  ASSERT_EQ(serial.size(), threaded.size());
  EXPECT_EQ(std::memcmp(serial.bytes().data(), threaded.bytes().data(),
                        serial.size()),
            0);
}

// Exercises every request family over one engine, folding each response
// into a caller-visible trace for comparison.
std::vector<Response> run_families(const SnapshotView& view) {
  RequestEngine engine(&view);
  std::vector<Response> trace;
  auto run = [&](Request q) {
    Response r;
    engine.execute(q, r);
    trace.push_back(std::move(r));
  };
  const auto n = static_cast<graph::NodeId>(view.node_count());
  for (graph::NodeId u = 0; u < n; u += 17) {
    run({.type = RequestType::kGetProfile, .user = u});
    run({.type = RequestType::kDegree, .user = u});
    run({.type = RequestType::kReciprocity, .user = u});
    // Circle pages: first page, mid-list page, off-the-end page.
    run({.type = RequestType::kGetOutCircle, .user = u, .limit = 8});
    run({.type = RequestType::kGetOutCircle,
         .user = u,
         .offset = 4,
         .limit = 1000});
    run({.type = RequestType::kGetInCircle, .user = u, .limit = 64});
    run({.type = RequestType::kGetInCircle,
         .user = u,
         .offset = 100'000,
         .limit = 10});
    // Deadline-clipped circle page (partial payloads must agree too).
    run({.type = RequestType::kGetOutCircle,
         .user = u,
         .limit = 1000,
         .cost_budget = 3});
    run({.type = RequestType::kShortestPath,
         .user = u,
         .target = static_cast<graph::NodeId>((u * 31 + 7) % n)});
    run({.type = RequestType::kShortestPath,
         .user = u,
         .target = static_cast<graph::NodeId>((u + 1) % n),
         .cost_budget = 25});
    // Suggest: full 2-hop walk, a default-limit page, and a
    // deadline-clipped partial (header patching must agree byte-for-byte).
    run({.type = RequestType::kSuggest, .user = u, .limit = 10});
    run({.type = RequestType::kSuggest, .user = u});
    run({.type = RequestType::kSuggest,
         .user = u,
         .limit = 25,
         .cost_budget = 40});
  }
  run({.type = RequestType::kTopK, .limit = 50});
  run({.type = RequestType::kTopK, .limit = 7, .cost_budget = 4});
  // Error statuses must match as well.
  run({.type = RequestType::kGetProfile, .user = n});
  run({.type = RequestType::kGetOutCircle, .user = n + 5, .limit = 10});
  run({.type = RequestType::kShortestPath, .user = 0, .target = n});
  run({.type = RequestType::kSuggest, .user = n, .limit = 5});
  run({.type = RequestType::kSuggest, .user = 0, .limit = 10'000});
  return trace;
}

void expect_identical(const std::vector<Response>& a,
                      const std::vector<Response>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << what << " request " << i;
    EXPECT_EQ(a[i].flags, b[i].flags) << what << " request " << i;
    ASSERT_EQ(a[i].payload.size(), b[i].payload.size())
        << what << " request " << i;
    EXPECT_EQ(a[i].payload, b[i].payload) << what << " request " << i;
    EXPECT_EQ(a[i].cost, b[i].cost) << what << " request " << i;
  }
}

TEST_F(SnapshotEquivalence, EveryRequestFamilyByteIdenticalAcrossFormats) {
  const SnapshotView flat(v2().bytes());
  const SnapshotView compressed(v3().bytes());
  ASSERT_FALSE(flat.adjacency_compressed());
  ASSERT_TRUE(compressed.adjacency_compressed());
  const auto want = run_families(flat);
  expect_identical(want, run_families(compressed), "v2 vs v3");

  const auto path = scratch("gplus_equiv_mmap");
  save_snapshot(v3(), path);
  {
    MappedSnapshot mapped(path);
    expect_identical(want, run_families(mapped.view()), "v2 vs v3-mmap");
  }
  std::filesystem::remove(path);
}

TEST_F(SnapshotEquivalence, ScanAndLookupSurfacesAgree) {
  const SnapshotView flat(v2().bytes());
  const SnapshotView compressed(v3().bytes());
  for (graph::NodeId u = 0; u < flat.node_count(); ++u) {
    ASSERT_EQ(compressed.out_degree(u), flat.out_degree(u)) << u;
    ASSERT_EQ(compressed.in_degree(u), flat.in_degree(u)) << u;
    ASSERT_EQ(compressed.reciprocal_out_degree(u),
              flat.reciprocal_out_degree(u))
        << u;
    NeighborScan scan = compressed.out_scan(u);
    NeighborScan want = flat.out_scan(u);
    ASSERT_EQ(scan.size(), want.size()) << u;
    graph::NodeId got = 0;
    graph::NodeId w = 0;
    while (want.next(w)) {
      ASSERT_TRUE(scan.next(got)) << u;
      ASSERT_EQ(got, w) << u;
      ASSERT_TRUE(compressed.has_edge(u, w)) << u << "->" << w;
    }
  }
}

TEST_F(SnapshotEquivalence, TriadCensusIdenticalAcrossFormatsAndKernels) {
  // The exact census must not care where the adjacency lives: in-RAM
  // CSR, flat v2, compressed v3 or the same v3 bytes off mmap. Each
  // triangle-pass intersection is dispatched per call (AVX2/SSE/scalar or
  // galloping by length ratio); test_intersect checks every kernel on
  // these forward-row pairs.
  const algo::TriadCensus want = algo::triad_census(dataset().graph());
  ASSERT_GT(want.closed(), 0u);

  const SnapshotView flat(v2().bytes());
  EXPECT_EQ(algo::triad_census(flat), want) << "v2 flat";
  const SnapshotView compressed(v3().bytes());
  EXPECT_EQ(algo::triad_census(compressed), want) << "v3 compressed";

  const auto path = scratch("gplus_equiv_census");
  save_snapshot(v3(), path);
  {
    MappedSnapshot mapped(path);
    EXPECT_EQ(algo::triad_census(mapped.view()), want) << "v3 mmap";
  }
  std::filesystem::remove(path);
}

TEST_F(SnapshotEquivalence, SampledCensusIdenticalAcrossFormats) {
  // The wedge sampler's probes run through each format's own edge lookup
  // (binary search on v2, block-skip varint decode on v3): identical
  // estimates prove the compressed membership path end to end.
  algo::TriadSampleConfig config;
  config.samples = 20'000;
  config.seed = 13;
  const algo::SampledTriadCensus want =
      algo::sample_triad_census(dataset().graph(), config);
  ASSERT_GT(want.total_wedges, 0u);

  const auto check = [&](const SnapshotView& view, const char* label) {
    const algo::SampledTriadCensus got =
        algo::sample_triad_census(view, config);
    EXPECT_EQ(got.total_wedges, want.total_wedges) << label;
    EXPECT_EQ(got.closed_fraction, want.closed_fraction) << label;
    for (std::size_t k = 0; k < algo::kTriadClassCount; ++k) {
      EXPECT_EQ(got.estimated_counts[k], want.estimated_counts[k])
          << label << " class " << k;
    }
  };
  const SnapshotView flat(v2().bytes());
  check(flat, "v2 flat");
  const SnapshotView compressed(v3().bytes());
  check(compressed, "v3 compressed");

  const auto path = scratch("gplus_equiv_census_sampled");
  save_snapshot(v3(), path);
  {
    MappedSnapshot mapped(path);
    check(mapped.view(), "v3 mmap");
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace gplus::serve
