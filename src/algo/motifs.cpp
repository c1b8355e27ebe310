#include "algo/motifs.h"

#include <algorithm>

namespace gplus::algo {

using graph::NodeId;

namespace {

constexpr std::array<std::string_view, kTriadClassCount> kClassNames = {
    "003",  "012",  "102",  "021D", "021U", "021C", "111D", "111U",
    "030T", "030C", "201",  "120D", "120U", "120C", "210",  "300"};

// Arc-mask bit index of the ordered pair (from, to) over local nodes
// {0, 1, 2}; diagonal unused.
constexpr int kPairBit[3][3] = {{-1, 0, 2}, {1, -1, 4}, {3, 5, -1}};

// One representative arc mask per class (M-A-N order), drawn from the
// standard statnet/Pajek pictures; e.g. 021D is A←B→C and 111U is A↔B→C.
constexpr std::array<unsigned, kTriadClassCount> kClassMask = {
    0x00,  // 003
    0x01,  // 012   0→1
    0x03,  // 102   0↔1
    0x05,  // 021D  0→1, 0→2
    0x0A,  // 021U  1→0, 2→0
    0x11,  // 021C  0→1, 1→2
    0x23,  // 111D  0↔1, 2→1
    0x13,  // 111U  0↔1, 1→2
    0x25,  // 030T  0→1, 2→1, 0→2
    0x26,  // 030C  1→0, 0→2, 2→1
    0x33,  // 201   0↔1, 1↔2
    0x1E,  // 120D  1→0, 1→2, 0↔2
    0x2D,  // 120U  0→1, 2→1, 0↔2
    0x1D,  // 120C  0→1, 1→2, 0↔2
    0x3D,  // 210   0→1, 1↔2, 0↔2
    0x3F,  // 300
};

// All 6 permutations of the local node labels.
constexpr int kPerms[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                              {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};

unsigned permute_mask(unsigned mask, const int (&p)[3]) noexcept {
  unsigned out = 0;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i == j) continue;
      if ((mask >> kPairBit[i][j]) & 1U) out |= 1U << kPairBit[p[i]][p[j]];
    }
  }
  return out;
}

unsigned canonical_mask(unsigned mask) noexcept {
  unsigned best = mask;
  for (const auto& p : kPerms) best = std::min(best, permute_mask(mask, p));
  return best;
}

// mask → class for all 64 arc masks, built by canonicalizing each mask
// and matching it against the canonicalized class representatives.
std::array<std::uint8_t, 64> build_mask_table() {
  std::array<unsigned, kTriadClassCount> canon{};
  for (std::size_t k = 0; k < kTriadClassCount; ++k) {
    canon[k] = canonical_mask(kClassMask[k]);
  }
  std::array<std::uint8_t, 64> table{};
  for (unsigned mask = 0; mask < 64; ++mask) {
    const unsigned c = canonical_mask(mask);
    bool matched = false;
    for (std::size_t k = 0; k < kTriadClassCount; ++k) {
      if (canon[k] == c) {
        table[mask] = static_cast<std::uint8_t>(k);
        matched = true;
        break;
      }
    }
    GPLUS_EXPECT(matched, "arc mask matches no triad class");
  }
  return table;
}

const std::array<std::uint8_t, 64>& mask_table() {
  static const std::array<std::uint8_t, 64> table = build_mask_table();
  return table;
}

// Seven classes whose three dyads are all linked.
constexpr bool kClassClosed[kTriadClassCount] = {
    false, false, false, false, false, false, false, false,
    true,  true,  false, true,  true,  true,  true,  true};

// Mirrors a dyad code to the other endpoint's perspective (1↔2, 3↔3).
inline std::uint8_t flip_code(std::uint8_t c) noexcept {
  return static_cast<std::uint8_t>(((c & 1U) << 1) | ((c >> 1) & 1U));
}

// Open-wedge mask at a center: codes c1 = (center, a), c2 = (center, b)
// occupy the 0-1 and 0-2 dyad bit slots; the far pair stays null.
inline unsigned wedge_mask(std::uint8_t c1, std::uint8_t c2) noexcept {
  return static_cast<unsigned>(c1) | (static_cast<unsigned>(c2) << 2);
}

// Signed accumulator: the wedge phase overcounts closed triads and the
// triangle phase subtracts the overcounts, so partials can dip negative.
struct CensusAcc {
  std::array<std::int64_t, kTriadClassCount> counts{};
};

}  // namespace

std::string_view triad_class_name(TriadClass cls) noexcept {
  return kClassNames[static_cast<std::size_t>(cls)];
}

TriadClass triad_class_of_mask(unsigned mask) noexcept {
  return static_cast<TriadClass>(mask_table()[mask & 63U]);
}

bool triad_class_closed(TriadClass cls) noexcept {
  return kClassClosed[static_cast<std::size_t>(cls)];
}

std::uint64_t TriadCensus::total() const noexcept {
  std::uint64_t sum = 0;
  for (const auto c : counts) sum += c;
  return sum;
}

std::uint64_t TriadCensus::closed() const noexcept {
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < kTriadClassCount; ++k) {
    if (kClassClosed[k]) sum += counts[k];
  }
  return sum;
}

std::uint64_t TriadCensus::open_wedges() const noexcept {
  return (*this)[TriadClass::k021D] + (*this)[TriadClass::k021U] +
         (*this)[TriadClass::k021C] + (*this)[TriadClass::k111D] +
         (*this)[TriadClass::k111U] + (*this)[TriadClass::k201];
}

double TriadCensus::wedge_closure() const noexcept {
  const std::uint64_t closed3 = 3 * closed();
  const std::uint64_t wedges = closed3 + open_wedges();
  if (wedges == 0) return 0.0;
  return static_cast<double>(closed3) / static_cast<double>(wedges);
}

namespace motif_detail {

std::uint64_t fork_sample_seed(std::uint64_t seed,
                               std::uint64_t index) noexcept {
  // splitmix64 over the sample's position in its own keyed stream: two
  // mixing rounds decorrelate neighboring indices.
  std::uint64_t state = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  stats::splitmix64_next(state);
  return stats::splitmix64_next(state);
}

TriadCensus census_from_union(const triangle_detail::FlatRows& adj) {
  const std::size_t n = adj.node_count();
  GPLUS_EXPECT(n <= kTriadCensusMaxNodes,
               "exact census limited to 4.8M nodes (C(n,3) must fit u64)");
  TriadCensus census;
  if (n < 3) {
    return census;
  }
  const auto combine = [](CensusAcc& into, const CensusAcc& from) {
    for (std::size_t k = 0; k < kTriadClassCount; ++k) {
      into.counts[k] += from.counts[k];
    }
  };
  const auto idx = [](TriadClass cls) { return static_cast<std::size_t>(cls); };

  // Phase 1 — wedges and dyads. Every unordered neighbor pair at a
  // center contributes one (possibly not-yet-open) wedge class; every
  // linked pair contributes its third-node-isolated estimate to 012/102.
  // Closed pairs are repaired in phase 2.
  CensusAcc acc = core::parallel_reduce(
      n, kMotifRowGrain, CensusAcc{},
      [&](std::size_t begin, std::size_t end, CensusAcc& out) {
        for (auto u = static_cast<NodeId>(begin); u < end; ++u) {
          const auto row = adj.row(u);
          const auto codes = adj.codes(u);
          std::uint64_t per_code[4] = {0, 0, 0, 0};
          for (const std::uint8_t c : codes) ++per_code[c];
          for (std::uint8_t c1 = 1; c1 <= 3; ++c1) {
            for (std::uint8_t c2 = c1; c2 <= 3; ++c2) {
              const std::uint64_t pairs =
                  c1 == c2 ? per_code[c1] * (per_code[c1] - 1) / 2
                           : per_code[c1] * per_code[c2];
              out.counts[idx(triad_class_of_mask(wedge_mask(c1, c2)))] +=
                  static_cast<std::int64_t>(pairs);
            }
          }
          const auto du = static_cast<std::int64_t>(row.size());
          for (std::size_t i = 0; i < row.size(); ++i) {
            const NodeId v = row[i];
            if (v <= u) continue;
            const auto dv = static_cast<std::int64_t>(adj.degree[v]);
            const std::int64_t isolated_thirds =
                static_cast<std::int64_t>(n) - du - dv;
            const TriadClass dyad =
                codes[i] == 3 ? TriadClass::k102 : TriadClass::k012;
            out.counts[idx(dyad)] += isolated_thirds;
          }
        }
      },
      combine);

  // Phase 2 — triangles. The triangle census's walk visits each triangle
  // once, at its lowest-ranked corner u, with the codes of its three
  // dyads (u, v), (u, w) and (v, w).
  const CensusAcc triangle_acc = triangle_detail::reduce_triangles(
      triangle_detail::forward_rows(adj), CensusAcc{},
      [&](CensusAcc& out, std::uint8_t cuv, std::uint8_t cuw,
          std::uint8_t cvw) {
        const unsigned mask = static_cast<unsigned>(cuv) |
                              (static_cast<unsigned>(cuw) << 2) |
                              (static_cast<unsigned>(cvw) << 4);
        out.counts[idx(triad_class_of_mask(mask))] += 1;
        // Repair phase 1: this triple was counted as an open wedge at
        // each corner and as having an isolated third at each linked
        // pair.
        out.counts[idx(triad_class_of_mask(wedge_mask(cuv, cuw)))] -= 1;
        out.counts[idx(
            triad_class_of_mask(wedge_mask(flip_code(cuv), cvw)))] -= 1;
        out.counts[idx(triad_class_of_mask(
            wedge_mask(flip_code(cuw), flip_code(cvw))))] -= 1;
        for (const std::uint8_t c : {cuv, cuw, cvw}) {
          out.counts[idx(c == 3 ? TriadClass::k102 : TriadClass::k012)] += 1;
        }
      },
      combine);
  combine(acc, triangle_acc);

  std::uint64_t linked = 0;
  for (std::size_t k = 1; k < kTriadClassCount; ++k) {
    census.counts[k] = static_cast<std::uint64_t>(acc.counts[k]);
    linked += census.counts[k];
  }
  // C(n, 3) through 128-bit arithmetic: the product overflows u64 well
  // before the quotient does (kTriadCensusMaxNodes keeps the quotient in
  // range).
  const unsigned __int128 nodes = n;
  const auto triples = static_cast<std::uint64_t>(
      nodes * (nodes - 1) * (nodes - 2) / 6);
  census.counts[idx(TriadClass::k003)] = triples - linked;
  return census;
}

}  // namespace motif_detail

}  // namespace gplus::algo
