// Kernel equivalence for the shared sorted-set intersection
// (algo/intersect.h). The load-bearing property: every kernel — scalar,
// galloping, SSE, AVX2 — returns the same count and the same ascending
// element sequence as std::set_intersection on every input, so the
// per-call dispatch can never change a serving payload or a census.
// Edge cases (empty, disjoint, identical, subset, extreme skew, window
// boundaries) are pinned explicitly; a seeded fuzz sweep covers the space
// in between, and real adjacency-row pairs — the rows Suggest intersects
// and the triangle walk's forward rows — cover the inputs production
// sees.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/intersect.h"
#include "algo/triangles.h"
#include "core/dataset.h"
#include "stats/rng.h"

namespace {

using gplus::algo::detail::IntersectKernel;
using gplus::algo::detail::intersect_kernel_name;
using gplus::algo::detail::intersect_with;
using gplus::graph::NodeId;

// Every concrete kernel (kAuto exercised separately — it resolves to one
// of these, so equivalence of the concrete set covers it).
const IntersectKernel kAllKernels[] = {
    IntersectKernel::kScalar,
    IntersectKernel::kGalloping,
    IntersectKernel::kSse,
    IntersectKernel::kAvx2,
};

std::vector<NodeId> reference_intersection(const std::vector<NodeId>& a,
                                           const std::vector<NodeId>& b) {
  std::vector<NodeId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

// Asserts the full contract for one input pair: count and elements match
// the reference for every kernel, both directions, plus kAuto.
void expect_all_kernels_match(const std::vector<NodeId>& a,
                              const std::vector<NodeId>& b,
                              const std::string& label) {
  const std::vector<NodeId> want = reference_intersection(a, b);
  std::vector<NodeId> got;
  for (const IntersectKernel kernel : kAllKernels) {
    const auto name = std::string(intersect_kernel_name(kernel));
    EXPECT_EQ(intersect_with(kernel, a, b, nullptr), want.size())
        << label << ": count(" << name << ")";
    EXPECT_EQ(intersect_with(kernel, b, a, nullptr), want.size())
        << label << ": reversed count(" << name << ")";
    got.clear();
    EXPECT_EQ(intersect_with(kernel, a, b, &got), want.size())
        << label << ": intersect(" << name << ")";
    EXPECT_EQ(got, want) << label << ": elements(" << name << ")";
    got.clear();
    EXPECT_EQ(intersect_with(kernel, b, a, &got), want.size())
        << label << ": reversed intersect(" << name << ")";
    EXPECT_EQ(got, want) << label << ": reversed elements(" << name << ")";
  }
  EXPECT_EQ(gplus::algo::intersect_count(a, b), want.size())
      << label << ": count(auto)";
  EXPECT_EQ(gplus::algo::intersect(a, b, got), want.size())
      << label << ": intersect(auto)";
  EXPECT_EQ(got, want) << label << ": elements(auto)";
}

// Ascending duplicate-free list of `count` draws from [0, universe).
std::vector<NodeId> random_sorted(gplus::stats::Rng& rng, std::size_t count,
                                  std::uint64_t universe) {
  std::vector<NodeId> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    values.push_back(static_cast<NodeId>(rng.next_below(universe)));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

TEST(IntersectKernels, EmptyInputs) {
  expect_all_kernels_match({}, {}, "both empty");
  expect_all_kernels_match({}, {1, 2, 3}, "left empty");
  expect_all_kernels_match({7}, {}, "right empty");
}

TEST(IntersectKernels, DisjointLists) {
  expect_all_kernels_match({1, 3, 5, 7}, {2, 4, 6, 8}, "interleaved disjoint");
  expect_all_kernels_match({1, 2, 3, 4}, {100, 200, 300}, "range disjoint");
  // Disjoint across distant 4096-value windows.
  expect_all_kernels_match({1, 2, 3}, {40'960, 81'920, 123'456},
                           "window disjoint");
}

TEST(IntersectKernels, IdenticalLists) {
  const std::vector<NodeId> v{0, 1, 5, 9, 4096, 4097, 1'000'000};
  expect_all_kernels_match(v, v, "identical");
}

TEST(IntersectKernels, SubsetLists) {
  expect_all_kernels_match({2, 4, 6}, {1, 2, 3, 4, 5, 6, 7}, "strict subset");
  expect_all_kernels_match({0}, {0, 1, 2, 3, 4, 5, 6, 7, 8}, "singleton");
}

TEST(IntersectKernels, SingleElementAndBoundaryValues) {
  const NodeId max = std::numeric_limits<NodeId>::max();
  expect_all_kernels_match({0, max}, {max}, "max id");
  expect_all_kernels_match({0}, {0}, "zero only");
  expect_all_kernels_match({max - 1}, {max}, "adjacent near max");
}

TEST(IntersectKernels, BitsetWindowBoundaries) {
  // Values straddling multiples of 4096, including a run across one.
  std::vector<NodeId> a;
  std::vector<NodeId> b;
  for (NodeId base : {0u, 4095u, 4096u, 8191u, 8192u, 12'288u}) {
    a.push_back(base);
    if (base % 2 == 0) b.push_back(base);
  }
  for (NodeId v = 4090; v < 4102; ++v) b.push_back(v);
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  expect_all_kernels_match(a, b, "window straddle");
}

TEST(IntersectKernels, ExtremeSkew) {
  // One tiny list against one long dense list — galloping's home turf and
  // the SIMD tail-handling stress case.
  std::vector<NodeId> big(5000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<NodeId>(3 * i);
  }
  expect_all_kernels_match({0, 7'500, 14'997}, big, "tiny vs dense");
  expect_all_kernels_match({big.back()}, big, "last element only");
  expect_all_kernels_match({big.back() + 1}, big, "past the end");
}

TEST(IntersectKernels, RandomizedFuzz) {
  gplus::stats::Rng rng(20'260'808);
  for (int round = 0; round < 200; ++round) {
    // Sizes and universes swept across skew regimes, including empties.
    const std::size_t len_a = rng.next_below(300);
    const std::size_t len_b = rng.next_below(300) * (rng.next_below(8) + 1);
    const std::uint64_t universe = 1 + rng.next_below(20'000);
    const auto a = random_sorted(rng, len_a, universe);
    const auto b = random_sorted(rng, len_b, universe);
    expect_all_kernels_match(a, b, "fuzz round " + std::to_string(round));
    if (HasFailure()) break;  // one diagnostic is enough
  }
}

TEST(IntersectKernels, OutputVectorIsClearedAndRefilled) {
  const std::vector<NodeId> a{1, 2, 3};
  const std::vector<NodeId> b{2, 3, 4};
  const std::vector<NodeId> lone{1};
  const std::vector<NodeId> other{2};
  std::vector<NodeId> out{99, 98, 97};
  EXPECT_EQ(gplus::algo::intersect(a, b, out), 2u);
  EXPECT_EQ(out, (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(gplus::algo::intersect(lone, other, out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(IntersectKernels, NamesRoundTrip) {
  const std::string want[] = {"auto", "scalar", "galloping", "sse", "avx2"};
  for (std::size_t k = 0; k < gplus::algo::detail::kIntersectKernelCount;
       ++k) {
    EXPECT_EQ(intersect_kernel_name(static_cast<IntersectKernel>(k)), want[k]);
  }
}

TEST(IntersectKernels, AvailabilityImpliesSseWhenAvx2) {
  // The fallback ladder (avx2 -> sse -> scalar) requires SSE whenever
  // AVX2 reports available.
  if (gplus::algo::detail::avx2_intersect_available()) {
    EXPECT_TRUE(gplus::algo::detail::sse_intersect_available());
  }
}

TEST(IntersectKernels, AutoDispatchFollowsLengthsAndCpu) {
  using gplus::algo::detail::auto_intersect_kernel;
  using gplus::algo::detail::kIntersectSkewThreshold;
  ASSERT_EQ(kIntersectSkewThreshold, 32u);
  const IntersectKernel simd =
      gplus::algo::detail::avx2_intersect_available()
          ? IntersectKernel::kAvx2
      : gplus::algo::detail::sse_intersect_available()
          ? IntersectKernel::kSse
          : IntersectKernel::kScalar;
  EXPECT_EQ(auto_intersect_kernel(0, 100), IntersectKernel::kScalar);
  EXPECT_EQ(auto_intersect_kernel(100, 0), IntersectKernel::kScalar);
  EXPECT_EQ(auto_intersect_kernel(10, 10), simd);
  EXPECT_EQ(auto_intersect_kernel(10, 319), simd);  // ratio 31
  EXPECT_EQ(auto_intersect_kernel(10, 320), IntersectKernel::kGalloping);
  EXPECT_EQ(auto_intersect_kernel(320, 10), IntersectKernel::kGalloping);
  EXPECT_EQ(auto_intersect_kernel(1, 1'000'000), IntersectKernel::kGalloping);
}

// Every kernel against std::set_intersection on the adjacency-row pairs
// the library intersects on the standard dataset. Hub rows make many of
// them strongly skewed, so the galloping side of the dispatch runs too.
class IntersectAdjacencyRows : public ::testing::Test {
 protected:
  static const gplus::core::Dataset& dataset() {
    static const gplus::core::Dataset instance =
        gplus::core::make_standard_dataset(2'000, 11);
    return instance;
  }
};

TEST_F(IntersectAdjacencyRows, SuggestFriendAndTwoHopRows) {
  // Suggest intersects out(u) with out(c) for every 2-hop candidate c:
  // a friend of a friend of u that is neither u nor a friend of u.
  const auto& g = dataset().graph();
  std::size_t pairs = 0;
  for (NodeId u = 0; u < 150; ++u) {
    const auto friends = g.out_neighbors(u);
    std::vector<NodeId> candidates;
    for (const NodeId v : friends) {
      for (const NodeId c : g.out_neighbors(v)) {
        if (c != u && !std::binary_search(friends.begin(), friends.end(), c)) {
          candidates.push_back(c);
        }
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    const std::vector<NodeId> mine(friends.begin(), friends.end());
    for (const NodeId c : candidates) {
      const auto theirs = g.out_neighbors(c);
      expect_all_kernels_match(mine, {theirs.begin(), theirs.end()},
                               std::to_string(u) + " vs " + std::to_string(c));
      if (HasFailure()) return;  // one diagnostic is enough
      ++pairs;
    }
  }
  EXPECT_GT(pairs, 10'000u);
}

TEST_F(IntersectAdjacencyRows, TriangleForwardRows) {
  // The censuses' walk marks forward[u] and scans forward[v] instead of
  // intersecting them, but these hub-skewed row pairs are what a
  // triangle intersection meets.
  const auto forward = gplus::algo::triangle_detail::forward_rows(
      gplus::algo::triangle_detail::union_rows(dataset().graph()));
  std::size_t pairs = 0;
  for (NodeId u = 0; u < forward.node_count(); ++u) {
    const auto fu = forward.row(u);
    for (const NodeId v : fu) {
      const auto fv = forward.row(v);
      expect_all_kernels_match({fu.begin(), fu.end()}, {fv.begin(), fv.end()},
                               std::to_string(u) + " vs " + std::to_string(v));
      if (HasFailure()) return;
      ++pairs;
    }
  }
  EXPECT_GT(pairs, 10'000u);
}

TEST(IntersectKernels, MergeIntersectCountGeneric) {
  using gplus::algo::merge_intersect_count;
  const std::vector<std::string> a{"ann", "bob", "eve"};
  const std::vector<std::string> b{"bob", "carl", "eve", "zed"};
  EXPECT_EQ(merge_intersect_count<std::string>(a, b), 2u);
  EXPECT_EQ(merge_intersect_count<std::string>(a, {}), 0u);
  const std::vector<int> x{-5, 0, 3};
  const std::vector<int> y{-5, 3, 9};
  EXPECT_EQ(merge_intersect_count<int>(x, y), 2u);
}

}  // namespace
