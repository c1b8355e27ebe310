#include "algo/intersect.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__i386__)
#define GPLUS_X86_SIMD 1
#include <immintrin.h>
#endif

namespace gplus::algo {

using graph::NodeId;
using detail::IntersectKernel;

namespace {

// Every kernel returns the count and, when `out` is non-null, appends the
// matching elements in ascending order. Inputs are ascending and
// duplicate-free (adjacency rows are), so "same set" implies "same bytes".

std::size_t run_scalar(std::span<const NodeId> a, std::span<const NodeId> b,
                       std::vector<NodeId>* out) {
  std::size_t i = 0, j = 0, count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      if (out != nullptr) out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return count;
}

// Exponential probe from `from`, then binary search: the first index in
// [from, list.size()) whose value is >= key.
std::size_t gallop_lower_bound(std::span<const NodeId> list, std::size_t from,
                               NodeId key) {
  if (from >= list.size() || list[from] >= key) return from;
  // Invariant below: list[lo] < key, so the answer lies in (lo, lo+step].
  std::size_t lo = from;
  std::size_t step = 1;
  while (lo + step < list.size() && list[lo + step] < key) {
    lo += step;
    step <<= 1;
  }
  const auto hi_off =
      static_cast<std::ptrdiff_t>(std::min(lo + step + 1, list.size()));
  return static_cast<std::size_t>(
      std::lower_bound(list.begin() + static_cast<std::ptrdiff_t>(lo),
                       list.begin() + hi_off, key) -
      list.begin());
}

std::size_t run_galloping(std::span<const NodeId> a, std::span<const NodeId> b,
                          std::vector<NodeId>* out) {
  // Iterate the shorter list, search the longer; a moving lower bound keeps
  // total search work O(small * log(large / small)).
  std::span<const NodeId> small = a.size() <= b.size() ? a : b;
  std::span<const NodeId> large = a.size() <= b.size() ? b : a;
  std::size_t lo = 0, count = 0;
  for (const NodeId x : small) {
    lo = gallop_lower_bound(large, lo, x);
    if (lo >= large.size()) break;
    if (large[lo] == x) {
      ++count;
      if (out != nullptr) out->push_back(x);
      ++lo;
    }
  }
  return count;
}

#if defined(GPLUS_X86_SIMD)

// Block-compare kernels: load one block from each list, compare all pairs
// by rotating one operand through every lane, collect the per-lane match
// mask on the `a` block, then advance whichever block exhausted first
// (both on ties). Unique inputs mean each equal pair is seen in exactly
// one block pairing, so counting mask bits is exact; the scalar tail
// finishes whatever is left. Matches are emitted lane-ascending, which
// keeps the output sequence ascending across block pairings.

__attribute__((target("sse2"))) std::size_t run_sse(
    std::span<const NodeId> a, std::span<const NodeId> b,
    std::vector<NodeId>* out) {
  std::size_t i = 0, j = 0, count = 0;
  while (i + 4 <= a.size() && j + 4 <= b.size()) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.data() + i));
    __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.data() + j));
    __m128i match = _mm_cmpeq_epi32(va, vb);
    vb = _mm_shuffle_epi32(vb, 0x39);  // rotate lanes: 1,2,3,0
    match = _mm_or_si128(match, _mm_cmpeq_epi32(va, vb));
    vb = _mm_shuffle_epi32(vb, 0x39);
    match = _mm_or_si128(match, _mm_cmpeq_epi32(va, vb));
    vb = _mm_shuffle_epi32(vb, 0x39);
    match = _mm_or_si128(match, _mm_cmpeq_epi32(va, vb));
    unsigned mask =
        static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(match)));
    count += static_cast<std::size_t>(__builtin_popcount(mask));
    if (out != nullptr) {
      while (mask != 0) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctz(mask));
        out->push_back(a[i + lane]);
        mask &= mask - 1;
      }
    }
    const NodeId amax = a[i + 3];
    const NodeId bmax = b[j + 3];
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  return count + run_scalar(a.subspan(i), b.subspan(j), out);
}

__attribute__((target("avx2"))) std::size_t run_avx2(
    std::span<const NodeId> a, std::span<const NodeId> b,
    std::vector<NodeId>* out) {
  const __m256i rotate = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  std::size_t i = 0, j = 0, count = 0;
  while (i + 8 <= a.size() && j + 8 <= b.size()) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + j));
    __m256i match = _mm256_cmpeq_epi32(va, vb);
    for (int r = 1; r < 8; ++r) {
      vb = _mm256_permutevar8x32_epi32(vb, rotate);
      match = _mm256_or_si256(match, _mm256_cmpeq_epi32(va, vb));
    }
    unsigned mask =
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(match)));
    count += static_cast<std::size_t>(__builtin_popcount(mask));
    if (out != nullptr) {
      while (mask != 0) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctz(mask));
        out->push_back(a[i + lane]);
        mask &= mask - 1;
      }
    }
    const NodeId amax = a[i + 7];
    const NodeId bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  return count + run_scalar(a.subspan(i), b.subspan(j), out);
}

#endif  // GPLUS_X86_SIMD

}  // namespace

namespace detail {

std::string_view intersect_kernel_name(IntersectKernel kernel) noexcept {
  switch (kernel) {
    case IntersectKernel::kAuto: return "auto";
    case IntersectKernel::kScalar: return "scalar";
    case IntersectKernel::kGalloping: return "galloping";
    case IntersectKernel::kSse: return "sse";
    case IntersectKernel::kAvx2: return "avx2";
  }
  return "?";
}

bool sse_intersect_available() noexcept {
#if defined(GPLUS_X86_SIMD)
  static const bool available = __builtin_cpu_supports("sse2") != 0;
  return available;
#else
  return false;
#endif
}

bool avx2_intersect_available() noexcept {
#if defined(GPLUS_X86_SIMD)
  static const bool available = __builtin_cpu_supports("avx2") != 0;
  return available;
#else
  return false;
#endif
}

IntersectKernel auto_intersect_kernel(std::size_t na, std::size_t nb) noexcept {
  const std::size_t small = std::min(na, nb);
  const std::size_t large = std::max(na, nb);
  if (small == 0) return IntersectKernel::kScalar;
  if (large / small >= kIntersectSkewThreshold) {
    return IntersectKernel::kGalloping;
  }
  if (avx2_intersect_available()) return IntersectKernel::kAvx2;
  if (sse_intersect_available()) return IntersectKernel::kSse;
  return IntersectKernel::kScalar;
}

std::size_t intersect_with(IntersectKernel kernel, std::span<const NodeId> a,
                           std::span<const NodeId> b,
                           std::vector<NodeId>* out) {
  // Every kernel lands on the same elements, so the choice is a pure
  // performance decision. Forced SIMD tiers fall back down the ladder
  // when the host lacks the feature.
  if (kernel == IntersectKernel::kAuto) {
    kernel = auto_intersect_kernel(a.size(), b.size());
  }
  if (kernel == IntersectKernel::kAvx2 && !avx2_intersect_available()) {
    kernel = IntersectKernel::kSse;
  }
  if (kernel == IntersectKernel::kSse && !sse_intersect_available()) {
    kernel = IntersectKernel::kScalar;
  }
  switch (kernel) {
    case IntersectKernel::kGalloping: return run_galloping(a, b, out);
#if defined(GPLUS_X86_SIMD)
    case IntersectKernel::kSse: return run_sse(a, b, out);
    case IntersectKernel::kAvx2: return run_avx2(a, b, out);
#endif
    default: return run_scalar(a, b, out);
  }
}

}  // namespace detail

std::size_t intersect_count(std::span<const NodeId> a,
                            std::span<const NodeId> b) noexcept {
  return detail::intersect_with(detail::IntersectKernel::kAuto, a, b, nullptr);
}

std::size_t intersect(std::span<const NodeId> a, std::span<const NodeId> b,
                      std::vector<NodeId>& out) {
  out.clear();
  return detail::intersect_with(detail::IntersectKernel::kAuto, a, b, &out);
}

}  // namespace gplus::algo
