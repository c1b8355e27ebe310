#include "algo/anf.h"

#include <algorithm>
#include <bit>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace gplus::algo {

void add_hash_to_registers(std::uint8_t* regs, unsigned p,
                           std::uint64_t hash) noexcept {
  const std::size_t index = hash >> (64 - p);
  const std::uint64_t rest = hash << p;
  // Rank: position of the leftmost 1-bit in the remaining 64-p bits.
  const auto rank = static_cast<std::uint8_t>(
      rest == 0 ? (64 - p + 1) : std::countl_zero(rest) + 1);
  regs[index] = std::max(regs[index], rank);
}

bool merge_registers(std::uint8_t* into, const std::uint8_t* from,
                     std::size_t m) noexcept {
  // HyperANF calls this once per arc per hop; a per-register compare and
  // conditional store mispredicts on every changed byte. Here every
  // register is stored back and "changed" is the OR of max ^ old.
#if defined(__SSE2__)
  __m128i diff = _mm_setzero_si128();
  for (std::size_t i = 0; i < m; i += 16) {
    auto* dst = reinterpret_cast<__m128i*>(into + i);
    const __m128i old = _mm_loadu_si128(dst);
    const __m128i max = _mm_max_epu8(
        old, _mm_loadu_si128(reinterpret_cast<const __m128i*>(from + i)));
    _mm_storeu_si128(dst, max);
    diff = _mm_or_si128(diff, _mm_xor_si128(max, old));
  }
  return _mm_movemask_epi8(_mm_cmpeq_epi8(diff, _mm_setzero_si128())) !=
         0xFFFF;
#else
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint8_t max = std::max(into[i], from[i]);
    diff |= static_cast<std::uint8_t>(max ^ into[i]);
    into[i] = max;
  }
  return diff != 0;
#endif
}

double estimate_registers(const std::uint8_t* regs, std::size_t m) noexcept {
  const auto md = static_cast<double>(m);
  const double alpha = md <= 16   ? 0.673
                       : md <= 32 ? 0.697
                       : md <= 64 ? 0.709
                                  : 0.7213 / (1.0 + 1.079 / md);
  double inverse_sum = 0.0;
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < m; ++i) {
    // 2^-r built from its exponent field: every byte r gives a normal
    // double, so this equals std::pow(2.0, -r) exactly at a fraction of
    // the cost of the libm call.
    inverse_sum +=
        std::bit_cast<double>(std::uint64_t{1023u - regs[i]} << 52);
    zeros += regs[i] == 0;
  }
  double estimate = alpha * md * md / inverse_sum;
  // Small-range (linear counting) correction.
  if (estimate <= 2.5 * md && zeros > 0) {
    estimate = md * std::log(md / static_cast<double>(zeros));
  }
  return estimate;
}

void anf_detail::summarize_distances(NeighborhoodFunction& out) noexcept {
  // Distance distribution from successive differences. Subtract the h=0
  // self-pairs so the mean matches the sampled estimator's convention
  // (pairs at distance >= 1).
  const double final_mass = out.reachable_pairs.back();
  const double base = out.reachable_pairs.front();
  double weighted = 0.0;
  const double pair_mass = std::max(1e-9, final_mass - base);
  for (std::size_t h = 1; h < out.reachable_pairs.size(); ++h) {
    const double at_h = std::max(0.0, out.reachable_pairs[h] -
                                          out.reachable_pairs[h - 1]);
    weighted += at_h * static_cast<double>(h);
  }
  out.mean_distance = weighted / pair_mass;

  // Effective diameter: first h with >= 90% of the final mass, linearly
  // interpolated within the hop (Backstrom et al.'s definition).
  const double target = base + 0.9 * (final_mass - base);
  for (std::size_t h = 1; h < out.reachable_pairs.size(); ++h) {
    if (out.reachable_pairs[h] >= target) {
      const double prev = out.reachable_pairs[h - 1];
      const double gain = out.reachable_pairs[h] - prev;
      const double frac = gain > 0 ? (target - prev) / gain : 0.0;
      out.effective_diameter = static_cast<double>(h - 1) + frac;
      break;
    }
  }
}

}  // namespace gplus::algo
