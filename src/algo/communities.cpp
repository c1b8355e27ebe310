#include "algo/communities.h"

#include <cmath>

namespace gplus::algo {

std::vector<std::uint64_t> Partition::sizes() const {
  std::vector<std::uint64_t> out(community_count, 0);
  for (auto l : label) ++out[l];
  return out;
}

namespace community_detail {

Partition compact(std::vector<std::uint32_t> raw) {
  std::unordered_map<std::uint32_t, std::uint32_t> remap;
  remap.reserve(raw.size());
  for (auto& l : raw) {
    const auto [it, inserted] =
        remap.try_emplace(l, static_cast<std::uint32_t>(remap.size()));
    l = it->second;
  }
  Partition p;
  p.label = std::move(raw);
  p.community_count = remap.size();
  return p;
}

}  // namespace community_detail

Partition partition_from_labels(std::span<const std::uint32_t> labels) {
  return community_detail::compact(
      std::vector<std::uint32_t>(labels.begin(), labels.end()));
}

double normalized_mutual_information(const Partition& a, const Partition& b) {
  GPLUS_EXPECT(a.label.size() == b.label.size(),
               "partitions must cover the same node set");
  const std::size_t n = a.label.size();
  if (n == 0) return 1.0;

  // Joint counts.
  std::unordered_map<std::uint64_t, std::uint64_t> joint;
  joint.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ++joint[(static_cast<std::uint64_t>(a.label[i]) << 32) | b.label[i]];
  }
  const auto sizes_a = a.sizes();
  const auto sizes_b = b.sizes();
  const auto dn = static_cast<double>(n);

  auto entropy = [&](const std::vector<std::uint64_t>& sizes) {
    double h = 0.0;
    for (auto s : sizes) {
      if (s == 0) continue;
      const double p = static_cast<double>(s) / dn;
      h -= p * std::log(p);
    }
    return h;
  };
  const double ha = entropy(sizes_a);
  const double hb = entropy(sizes_b);
  if (ha == 0.0 && hb == 0.0) return 1.0;  // both trivial partitions
  if (ha == 0.0 || hb == 0.0) return 0.0;

  double mi = 0.0;
  for (const auto& [key, count] : joint) {
    const auto la = static_cast<std::uint32_t>(key >> 32);
    const auto lb = static_cast<std::uint32_t>(key);
    const double pij = static_cast<double>(count) / dn;
    const double pi = static_cast<double>(sizes_a[la]) / dn;
    const double pj = static_cast<double>(sizes_b[lb]) / dn;
    mi += pij * std::log(pij / (pi * pj));
  }
  return mi / std::sqrt(ha * hb);
}

}  // namespace gplus::algo
