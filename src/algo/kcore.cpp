#include "algo/kcore.h"

namespace gplus::algo {

std::uint64_t CoreDecomposition::core_size(std::uint32_t k) const noexcept {
  std::uint64_t n = 0;
  for (auto c : coreness) n += c >= k;
  return n;
}

}  // namespace gplus::algo
