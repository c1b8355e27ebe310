#include "core/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algo/bfs.h"
#include "graph/builder.h"

namespace gplus::core {
namespace {

// Restores the default lane count after every test so the process-global
// pool never leaks a test's thread-count override into later suites.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_thread_count(0); }
};

TEST_F(ParallelTest, EmptyRangeNeverInvokesBody) {
  std::atomic<int> calls{0};
  parallel_for(0, 16, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  const int reduced = parallel_reduce(
      0, 16, 41, [&](std::size_t, std::size_t, int&) { ++calls; },
      [](int&, const int&) {});
  EXPECT_EQ(reduced, 41);  // identity comes back untouched
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(ParallelTest, RangeSmallerThanGrainRunsOnce) {
  set_thread_count(4);
  std::atomic<int> calls{0};
  std::size_t seen_begin = 99, seen_end = 0;
  parallel_for(5, 100, [&](std::size_t begin, std::size_t end) {
    ++calls;
    seen_begin = begin;
    seen_end = end;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_begin, 0u);
  EXPECT_EQ(seen_end, 5u);
}

TEST_F(ParallelTest, EveryIndexVisitedExactlyOnce) {
  set_thread_count(7);  // more lanes than this host has cores — still fine
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(kN, 64, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, ChunkGridIsThreadCountIndependent) {
  EXPECT_EQ(detail::chunk_count(0, 8), 0u);
  EXPECT_EQ(detail::chunk_count(1, 8), 1u);
  EXPECT_EQ(detail::chunk_count(8, 8), 1u);
  EXPECT_EQ(detail::chunk_count(9, 8), 2u);
  EXPECT_EQ(detail::chunk_count(100, 0), 100u);  // grain 0 clamps to 1
}

TEST_F(ParallelTest, ReduceSumsIntegersExactly) {
  set_thread_count(4);
  constexpr std::size_t kN = 100'001;
  const auto total = parallel_reduce(
      kN, 1000, std::uint64_t{0},
      [](std::size_t begin, std::size_t end, std::uint64_t& acc) {
        for (std::size_t i = begin; i < end; ++i) acc += i;
      },
      [](std::uint64_t& into, const std::uint64_t& from) { into += from; });
  EXPECT_EQ(total, std::uint64_t{kN} * (kN - 1) / 2);
}

TEST_F(ParallelTest, DoubleReduceIsBitIdenticalAcrossThreadCounts) {
  // The combine tree is fixed by (n, grain), so a floating-point sum must
  // not move by a single ulp when the lane count changes.
  constexpr std::size_t kN = 50'000;
  std::vector<double> values(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  auto sum = [&] {
    return parallel_reduce(
        kN, 512, 0.0,
        [&](std::size_t begin, std::size_t end, double& acc) {
          for (std::size_t i = begin; i < end; ++i) acc += values[i];
        },
        [](double& into, const double& from) { into += from; });
  };
  set_thread_count(1);
  const double serial = sum();
  for (std::size_t threads : {2u, 3u, 7u}) {
    set_thread_count(threads);
    EXPECT_EQ(serial, sum()) << threads << " threads";
  }
}

TEST_F(ParallelTest, ReduceGivesEachChunkAFreshAccumulatorAndAFixedTree) {
  // Every chunk's map must start from `identity`, never from what another
  // chunk folded on the same lane, and the chunk results must combine in
  // the fixed pairwise tree whatever the lane count.
  const std::string identity = "identity";
  for (std::size_t threads : {1u, 2u, 4u}) {
    set_thread_count(threads);
    std::atomic<int> dirty{0};
    const std::string got = parallel_reduce(
        14, 2, identity,
        [&](std::size_t begin, std::size_t end, std::string& acc) {
          if (acc != identity) dirty.fetch_add(1);
          acc = std::to_string(begin) + "-" + std::to_string(end);
        },
        [](std::string& into, const std::string& from) {
          into = "(" + into + " " + from + ")";
        });
    EXPECT_EQ(dirty.load(), 0) << threads << " lanes";
    // Seven chunks: pairs at stride 1, then 2, then 4; chunk 6 has no
    // partner until stride 2.
    EXPECT_EQ(got, "(((0-2 2-4) (4-6 6-8)) ((8-10 10-12) 12-14))")
        << threads << " lanes";
  }
}

TEST_F(ParallelTest, WorkerExceptionPropagatesToCaller) {
  set_thread_count(4);
  EXPECT_THROW(
      parallel_for(1000, 10,
                   [](std::size_t begin, std::size_t) {
                     if (begin == 500) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must survive a throwing region.
  std::atomic<std::size_t> visited{0};
  parallel_for(100, 10, [&](std::size_t begin, std::size_t end) {
    visited.fetch_add(end - begin);
  });
  EXPECT_EQ(visited.load(), 100u);
}

TEST_F(ParallelTest, NestedParallelCallsRunInline) {
  set_thread_count(4);
  constexpr std::size_t kOuter = 64;
  constexpr std::size_t kInner = 128;
  std::vector<std::atomic<std::size_t>> counts(kOuter);
  parallel_for(kOuter, 4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t o = begin; o < end; ++o) {
      // A kernel calling another ported kernel reaches this path.
      const auto inner = parallel_reduce(
          kInner, 16, std::size_t{0},
          [](std::size_t b, std::size_t e, std::size_t& acc) { acc += e - b; },
          [](std::size_t& into, const std::size_t& from) { into += from; });
      counts[o].store(inner);
    }
  });
  for (std::size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(counts[o].load(), kInner);
  }
}

// Kernels index per-call scratch by lane_index(), so every chunk must see
// a lane below thread_count(), and no lane may run two chunks at once.
TEST_F(ParallelTest, LaneIndexStaysInRangeAndExclusive) {
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
    set_thread_count(lanes);
    constexpr std::size_t kN = 20'000;
    constexpr std::size_t kGrain = 16;
    std::vector<std::size_t> seen(kN / kGrain, lanes);
    std::vector<std::atomic<bool>> busy(lanes);
    std::atomic<int> overlaps{0};
    parallel_for(kN, kGrain, [&](std::size_t begin, std::size_t) {
      const std::size_t lane = lane_index();
      seen[begin / kGrain] = lane;
      if (lane >= lanes) return;
      if (busy[lane].exchange(true)) ++overlaps;
      std::this_thread::yield();
      busy[lane].store(false);
    });
    for (const std::size_t lane : seen) {
      ASSERT_LT(lane, thread_count()) << lanes << " lanes";
    }
    EXPECT_EQ(overlaps.load(), 0) << lanes << " lanes";
  }
}

TEST_F(ParallelTest, NestedInlineRegionKeepsItsLane) {
  set_thread_count(4);
  std::atomic<int> mismatches{0};
  std::atomic<std::size_t> inner_chunks{0};
  parallel_for(64, 4, [&](std::size_t, std::size_t) {
    const std::size_t outer = lane_index();
    parallel_for(32, 4, [&](std::size_t, std::size_t) {
      ++inner_chunks;
      if (lane_index() != outer) ++mismatches;
    });
  });
  EXPECT_EQ(inner_chunks.load(), 16u * 8u);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ParallelTest, LaneIndexIsZeroOutsideRegions) {
  set_thread_count(4);
  parallel_for(1'000, 10, [](std::size_t, std::size_t) {});
  EXPECT_EQ(lane_index(), 0u);
  std::size_t other = 99;
  std::thread([&] { other = lane_index(); }).join();
  EXPECT_EQ(other, 0u);
}

TEST_F(ParallelTest, SetThreadCountIsObservable) {
  set_thread_count(5);
  EXPECT_EQ(thread_count(), 5u);
  set_thread_count(1);
  EXPECT_EQ(thread_count(), 1u);
  set_thread_count(0);  // back to GPLUS_THREADS / hardware default
  EXPECT_GE(thread_count(), 1u);
}

TEST_F(ParallelTest, SingleLaneNeverSpawnsWorkers) {
  set_thread_count(1);
  const std::size_t before = pool_threads_spawned();
  std::size_t total = 0;
  parallel_for(10'000, 100, [&](std::size_t begin, std::size_t end) {
    total += end - begin;  // single lane: no race
  });
  EXPECT_EQ(total, 10'000u);
  EXPECT_EQ(pool_threads_spawned(), before);
}

TEST_F(ParallelTest, ConcurrentBfsCallsDoNotExplodeThreadCount) {
  // Regression for the old bfs.cpp fan-out, which spawned
  // hardware_concurrency() fresh threads per call: eight concurrent
  // estimates would start 8 * hw threads. With the shared pool the worker
  // set is created once; concurrent submitters only wait their turn.
  graph::GraphBuilder b;
  stats::Rng gen(11);
  for (int i = 0; i < 4000; ++i) {
    b.add_edge(static_cast<graph::NodeId>(gen.next_below(500)),
               static_cast<graph::NodeId>(gen.next_below(500)));
  }
  const auto g = b.build();

  set_thread_count(3);
  // Warm the pool so its (one-time) worker spawn is not counted below.
  parallel_for(16, 1, [](std::size_t, std::size_t) {});
  const std::size_t spawned_before = pool_threads_spawned();

  constexpr std::size_t kCallers = 8;
  std::vector<algo::PathLengthEstimate> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      algo::PathLengthOptions opt;
      opt.initial_sources = 40;
      opt.max_sources = 80;
      stats::Rng rng(123);
      results[c] = algo::estimate_path_lengths(g, opt, rng);
    });
  }
  for (auto& caller : callers) caller.join();

  EXPECT_EQ(pool_threads_spawned(), spawned_before)
      << "BFS fan-out spawned ad-hoc threads instead of reusing the pool";
  // Same seed + deterministic fan-out: every caller got the same answer.
  for (std::size_t c = 1; c < kCallers; ++c) {
    ASSERT_EQ(results[c].pmf.size(), results[0].pmf.size());
    for (std::size_t h = 0; h < results[0].pmf.size(); ++h) {
      EXPECT_DOUBLE_EQ(results[c].pmf[h], results[0].pmf[h]);
    }
    EXPECT_EQ(results[c].sources_used, results[0].sources_used);
  }
}

TEST(ParallelEnv, StrictParserAcceptsSaneLaneCounts) {
  EXPECT_EQ(parse_thread_count_env("1"), 1u);
  EXPECT_EQ(parse_thread_count_env("8"), 8u);
  EXPECT_EQ(parse_thread_count_env("4096"), 4096u);
}

// A typo'd GPLUS_THREADS must fail fast with a one-line diagnostic, not
// silently fall back to hardware concurrency: the determinism contract is
// per lane count, so running at an unintended one invalidates a repro.
TEST(ParallelEnvDeathTest, InvalidLaneCountsFailFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto died = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse_thread_count_env("0"), died, "invalid GPLUS_THREADS");
  EXPECT_EXIT(parse_thread_count_env("-4"), died, "invalid GPLUS_THREADS");
  EXPECT_EXIT(parse_thread_count_env("4097"), died, "invalid GPLUS_THREADS");
  EXPECT_EXIT(parse_thread_count_env("8cores"), died, "invalid GPLUS_THREADS");
  EXPECT_EXIT(parse_thread_count_env("fast"), died, "invalid GPLUS_THREADS");
  EXPECT_EXIT(parse_thread_count_env(""), died, "invalid GPLUS_THREADS");
  EXPECT_EXIT(parse_thread_count_env("99999999999999999999"), died,
              "invalid GPLUS_THREADS");
}

}  // namespace
}  // namespace gplus::core
