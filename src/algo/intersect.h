// Shared sorted-set intersection (DESIGN.md §14).
//
// Every sorted-list intersection in src/algo and src/serve (suggest's
// mutual counts, reciprocity, clustering, jaccard) calls
// `intersect_count` or `intersect`. Both take two ascending,
// duplicate-free id lists and return the same count and the same
// ascending elements whichever kernel runs, so the payloads built on top
// are identical on every host and at every GPLUS_THREADS.
//
// The kernel is chosen per call from what the code can observe, and from
// nothing a user sets:
//   - the two lengths: a length ratio of kIntersectSkewThreshold or more
//     picks galloping (iterate the shorter list, exponential + binary
//     search the longer — a small circle against a celebrity's million
//     followers);
//   - otherwise the CPU: 8-lane AVX2 block compare (per-function target
//     attribute, no global -mavx2), then 4-lane SSE2, then the scalar
//     two-pointer merge.
// The scalar merge is the reference the other three must match; tests
// and bench/micro_intersect reach each kernel through
// detail::intersect_with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/types.h"

namespace gplus::algo {

/// |a ∩ b| for ascending duplicate-free lists.
std::size_t intersect_count(std::span<const graph::NodeId> a,
                            std::span<const graph::NodeId> b) noexcept;

/// a ∩ b (ascending) assigned into `out` (cleared first, capacity kept);
/// returns the element count.
std::size_t intersect(std::span<const graph::NodeId> a,
                      std::span<const graph::NodeId> b,
                      std::vector<graph::NodeId>& out);

/// Generic scalar merge-intersection count for any ascending duplicate-free
/// sequences (strings, ints, ...). The u32 kernels above are the fast path;
/// this is the same algorithm for element types they cannot vectorise.
template <typename T>
std::size_t merge_intersect_count(std::span<const T> a, std::span<const T> b) {
  std::size_t i = 0, j = 0, count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

namespace detail {

/// Length ratio (longer / shorter) at which dispatch switches to galloping.
inline constexpr std::size_t kIntersectSkewThreshold = 32;

/// The kernels. kAuto is the per-call dispatch `intersect_count` runs.
enum class IntersectKernel : std::uint8_t {
  kAuto = 0,
  kScalar,
  kGalloping,
  kSse,
  kAvx2,
};
inline constexpr std::size_t kIntersectKernelCount = 5;

/// Display name ("auto", "scalar", "galloping", "sse", "avx2").
std::string_view intersect_kernel_name(IntersectKernel kernel) noexcept;

/// True when the SIMD tier runs vectorised on this host; a forced SIMD
/// kernel the host lacks falls back down the ladder (still correct).
bool sse_intersect_available() noexcept;
bool avx2_intersect_available() noexcept;

/// The kernel kAuto dispatches to for lists of these lengths.
IntersectKernel auto_intersect_kernel(std::size_t na, std::size_t nb) noexcept;

/// Runs one kernel; appends a ∩ b to `*out` when `out` is non-null.
/// For tests and bench/micro_intersect only: library code calls
/// intersect_count / intersect.
std::size_t intersect_with(IntersectKernel kernel,
                           std::span<const graph::NodeId> a,
                           std::span<const graph::NodeId> b,
                           std::vector<graph::NodeId>* out);

}  // namespace detail

}  // namespace gplus::algo
