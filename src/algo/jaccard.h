// Jaccard similarity (Table 5 compares per-country occupation sets to the
// US baseline).
#pragma once

#include <span>
#include <string>
#include <vector>

namespace gplus::algo {

/// Jaccard index |A ∩ B| / |A ∪ B| of two sets given as (possibly
/// unsorted, possibly duplicated) value lists; duplicates are collapsed.
/// Two empty sets have similarity 1 by convention.
double jaccard_index(std::span<const int> a, std::span<const int> b);

/// String-keyed variant.
double jaccard_index(std::span<const std::string> a,
                     std::span<const std::string> b);

}  // namespace gplus::algo
