#include "serve/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/parallel.h"
#include "serve/snapshot_format.h"

namespace gplus::serve {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("snapshot: " + what);
}

}  // namespace

namespace detail {

namespace {

constexpr const char* kFlatSectionNames[kSnapshotDataSections] = {
    "out_offsets", "out_targets", "in_offsets",
    "in_targets",  "recip",       "profiles"};
constexpr const char* kCompressedSectionNames[kSnapshotDataSections] = {
    "out_adj", "in_adj", "perm", "inv", "recip_counts", "profiles"};

}  // namespace

const char* section_name(std::uint32_t version, std::size_t s) noexcept {
  return version == kSnapshotVersion3 ? kCompressedSectionNames[s]
                                      : kFlatSectionNames[s];
}

std::uint32_t checked_magic(const std::byte* magic) {
  const std::uint32_t version = version_from_magic(magic);
  if (version != 0) return version;
  if (std::memcmp(magic, kMagicV2, 6) == 0) {
    fail("unsupported format " +
         std::string(reinterpret_cast<const char*>(magic), 8) +
         " (reader knows versions 2 and 3)");
  }
  fail("bad magic (not a gplus snapshot)");
}

std::uint64_t SnapshotLayout::length(std::size_t s) const {
  if (s == 5) return pad8(nodes * sizeof(PackedProfile));
  if (compressed()) {
    // out_adj, in_adj; then perm, inv and recip_counts (u32 per node).
    return s < 2 ? adjacency_section_bytes(nodes, stream_bytes[s])
                 : pad8(nodes * 4);
  }
  if (s == 0 || s == 2) return (nodes + 1) * 8;  // out/in offsets
  if (s == 1 || s == 3) return pad8(edges * 4);  // out/in targets
  return (edges + 63) / 64 * 8;                  // reciprocal bitmap
}

SnapshotLayout SnapshotLayout::place(
    std::uint32_t version, std::uint64_t nodes, std::uint64_t edges,
    std::array<std::uint64_t, 2> stream_bytes) {
  SnapshotLayout layout;
  layout.version = version;
  layout.nodes = nodes;
  layout.edges = edges;
  layout.stream_bytes = stream_bytes;
  std::uint64_t at = kHeaderBytes;
  for (std::size_t s = 0; s < kSnapshotDataSections; ++s) {
    layout.offset[s] = at;
    at += layout.length(s);
  }
  layout.total = at + kSnapshotDigestBytes;
  return layout;
}

void SnapshotLayout::store_header(std::byte* at) const {
  std::memcpy(at, compressed() ? kMagicV3 : kMagicV2, 8);
  store_u32(at + 8, version);
  store_u32(at + 12, 0);  // flags: reserved
  store_u64(at + 16, nodes);
  store_u64(at + 24, edges);
  for (std::size_t s = 0; s < kSnapshotSectionCount; ++s) {
    store_u64(at + 32 + s * 8, s < kSnapshotDataSections ? offset[s] : 0);
  }
  store_u64(at + 96, total);
  store_u64(at + kChecksumOffset, fnv1a64(at, kChecksumOffset));
}

void store_digest_table(
    std::byte* at,
    const std::array<std::uint64_t, kSnapshotSectionCount>& digests) {
  for (std::size_t s = 0; s < kSnapshotSectionCount; ++s) {
    store_u64(at + s * 8, digests[s]);
  }
  store_u64(at + kSnapshotSectionCount * 8,
            fnv1a64(at, kSnapshotSectionCount * 8));
}

void SnapshotLayout::seal(std::byte* base) const {
  std::array<std::uint64_t, kSnapshotSectionCount> digests{};
  for (std::size_t s = 0; s < kSnapshotDataSections; ++s) {
    digests[s] = fnv1a64(base + offset[s], length(s));
  }
  store_digest_table(base + digest_table_at(), digests);
}

SnapshotLayout SnapshotLayout::read(std::span<const std::byte> bytes) {
  if (bytes.size() < kHeaderBytes) fail("truncated header");
  const std::byte* base = bytes.data();
  const std::uint32_t magic_version = checked_magic(base);
  SnapshotLayout layout;
  layout.version = load_u32(base + 8);
  if (layout.version != kSnapshotVersion2 &&
      layout.version != kSnapshotVersion3) {
    fail("unsupported version " + std::to_string(layout.version) +
         " (reader knows 2 and 3)");
  }
  if (layout.version != magic_version) {
    fail("magic/version mismatch (magic says " +
         std::to_string(magic_version) + ", header says " +
         std::to_string(layout.version) + ")");
  }
  if (load_u64(base + kChecksumOffset) != fnv1a64(base, kChecksumOffset)) {
    fail("corrupt header (checksum mismatch)");
  }
  // Reserved fields must be zero: a file that sets one means something
  // this reader does not know, so it is refused rather than half-read.
  if (const std::uint32_t flags = load_u32(base + 12); flags != 0) {
    fail("reserved header field set (flags word at byte 12 = " +
         std::to_string(flags) + ")");
  }
  for (std::size_t s = kSnapshotDataSections; s < kSnapshotSectionCount; ++s) {
    if (load_u64(base + 32 + s * 8) != 0) {
      fail("reserved header field set (section offset at byte " +
           std::to_string(32 + s * 8) + ")");
    }
  }
  layout.nodes = load_u64(base + 16);
  layout.edges = load_u64(base + 24);
  layout.total = load_u64(base + 96);
  if (layout.total != bytes.size()) {
    fail("size mismatch: header says " + std::to_string(layout.total) +
         " bytes, got " + std::to_string(bytes.size()));
  }
  if (reinterpret_cast<std::uintptr_t>(base) % 8 != 0) {
    fail("buffer not 8-byte aligned");
  }
  // The digest table occupies the final 72 bytes and data sections stay
  // below it. Its self-checksum is verified here (still O(1)); the section
  // digests are verify_sections()' job.
  if (layout.total < kHeaderBytes + kSnapshotDigestBytes) {
    fail("truncated digest table");
  }
  const std::uint64_t body_end = layout.digest_table_at();
  if (load_u64(base + body_end + kSnapshotSectionCount * 8) !=
      fnv1a64(base + body_end, kSnapshotSectionCount * 8)) {
    fail("corrupt digest table (self-checksum mismatch)");
  }
  // Refuse counts the body cannot hold before any length uses them: every
  // node owns a 16-byte profile, and every edge at least 8 flat target
  // bytes (4 out, 4 in) or 2 compressed stream bytes (one varint byte each
  // way). This also keeps every length below far from u64 overflow.
  if (layout.nodes > body_end / sizeof(PackedProfile)) {
    fail("node count impossible for buffer size");
  }
  if (layout.edges > body_end / (layout.compressed() ? 2 : 8)) {
    fail("edge count impossible for buffer size");
  }
  for (std::size_t s = 0; s < kSnapshotDataSections; ++s) {
    const std::string name = section_name(layout.version, s);
    const std::uint64_t off = load_u64(base + 32 + s * 8);
    if (off % 8 != 0) fail(name + " section misaligned");
    if (off < kHeaderBytes || off > body_end) {
      fail(name + " section out of bounds");
    }
    // Lengths that depend on section bytes read them only once those
    // bytes are known to lie inside the body.
    if (layout.compressed() && s < 2) {
      if (body_end - off < 16) fail(name + " section out of bounds");
      layout.stream_bytes[s] = load_u64(base + off);
      if (layout.stream_bytes[s] > body_end) {
        fail(name + " stream length impossible");
      }
    }
    if (layout.length(s) > body_end - off) {
      fail(name + " section out of bounds");
    }
    layout.offset[s] = off;
  }
  return layout;
}

RowIndexBuilder::RowIndexBuilder(std::uint64_t rows) : rows_(rows) {
  base_.reserve(adjacency_group_count(rows));
  rel_.reserve(rows + 1);
}

void RowIndexBuilder::add_row(std::uint64_t at) {
  if (rel_.size() % kSnapshotRowGroup == 0) base_.push_back(at);
  push_rel(at);
}

void RowIndexBuilder::finish(std::uint64_t end) {
  while (base_.size() < adjacency_group_count(rows_)) base_.push_back(end);
  push_rel(end);  // the sentinel, relative to the last group's base
}

void RowIndexBuilder::push_rel(std::uint64_t at) {
  const std::uint64_t rel = at - base_.back();
  if (rel > 0xFFFFFFFFULL) fail("compressed row group exceeds 4 GiB");
  rel_.push_back(static_cast<std::uint32_t>(rel));
}

}  // namespace detail

namespace {

using detail::adjacency_group_count;
using detail::fnv1a64;
using detail::kHeaderBytes;
using detail::load_u64;
using detail::pad8;
using detail::store_u64;

/// Flat-writer rows straight from a dataset's graph and profiles.
struct DatasetRows {
  const graph::DiGraph& g;
  const std::vector<synth::Profile>& profiles;

  std::size_t node_count() const { return g.node_count(); }
  std::uint64_t out_degree(graph::NodeId u) const { return g.out_degree(u); }
  std::uint64_t in_degree(graph::NodeId u) const { return g.in_degree(u); }
  void write_out(graph::NodeId u, graph::NodeId* dst) const {
    const auto row = g.out_neighbors(u);
    std::copy(row.begin(), row.end(), dst);
  }
  void write_in(graph::NodeId u, graph::NodeId* dst) const {
    const auto row = g.in_neighbors(u);
    std::copy(row.begin(), row.end(), dst);
  }
  bool has_edge(graph::NodeId a, graph::NodeId b) const {
    return g.has_edge(a, b);
  }
  void write_profile(graph::NodeId u, PackedProfile& slot) const {
    slot = pack_profile(profiles[u]);
  }
};

/// One encoded adjacency stream plus its row index, built in rank order.
struct EncodedAdjacency {
  std::vector<std::uint8_t> data;
  detail::RowIndexBuilder index;
};

/// Encodes every node's list in degree-rank order. `neighbors_of` maps an
/// original node id to its ascending flat list. Serial and therefore
/// deterministic at any thread count; the out-of-core builder streams the
/// same rows from its merged runs, and test_snapshot_equivalence holds the
/// two to the same bytes.
template <typename NeighborsOf>
EncodedAdjacency encode_rank_ordered(std::size_t n,
                                     const std::vector<graph::NodeId>& inv,
                                     NeighborsOf&& neighbors_of) {
  EncodedAdjacency enc{{}, detail::RowIndexBuilder(n)};
  for (std::uint32_t r = 0; r < n; ++r) {
    enc.index.add_row(enc.data.size());
    encode_adjacency_list(neighbors_of(inv[r]), enc.data);
  }
  enc.index.finish(enc.data.size());
  return enc;
}

/// Writes one compressed adjacency section at `at` (sub-header, base, rel,
/// stream; the reserved word and padding are already zero in the buffer).
void write_adjacency_section(std::byte* at, const EncodedAdjacency& enc) {
  store_u64(at, enc.data.size());
  std::byte* cursor = at + 16;
  const auto& base = enc.index.base();
  const auto& rel = enc.index.rel();
  std::memcpy(cursor, base.data(), base.size() * 8);
  cursor += base.size() * 8;
  std::memcpy(cursor, rel.data(), rel.size() * 4);
  cursor += pad8(rel.size() * 4);
  if (!enc.data.empty()) std::memcpy(cursor, enc.data.data(), enc.data.size());
}

/// v3 build path: compressed rank-ordered adjacency, stored permutation,
/// per-node reciprocal counts.
SnapshotBuffer build_snapshot_v3(const core::Dataset& dataset) {
  const graph::DiGraph& g = dataset.graph();
  const std::size_t n = g.node_count();

  // Values inside each list stay original ids, so decoded answers match
  // v2 byte for byte; the rank order only places rows.
  const std::vector<graph::NodeId> inv =
      detail::degree_rank_order(n, [&](graph::NodeId u) {
        return std::uint64_t{g.out_degree(u)} + g.in_degree(u);
      });
  std::vector<std::uint32_t> perm(n);
  for (std::uint32_t r = 0; r < n; ++r) perm[inv[r]] = r;

  const EncodedAdjacency out_enc = encode_rank_ordered(
      n, inv, [&](graph::NodeId u) { return g.out_neighbors(u); });
  const EncodedAdjacency in_enc = encode_rank_ordered(
      n, inv, [&](graph::NodeId u) { return g.in_neighbors(u); });

  // Per-node reciprocal out-degree (the v2 bitmap's one aggregate query,
  // precomputed). Disjoint per-node writes: deterministic in parallel.
  std::vector<std::uint32_t> recip(n, 0);
  core::parallel_for(n, 1024, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      const auto id = static_cast<graph::NodeId>(u);
      std::uint32_t count = 0;
      for (const graph::NodeId v : g.out_neighbors(id)) {
        if (g.has_edge(v, id)) ++count;
      }
      recip[u] = count;
    }
  });

  const detail::SnapshotLayout layout = detail::SnapshotLayout::place(
      kSnapshotVersion3, n, g.edge_count(),
      {out_enc.data.size(), in_enc.data.size()});
  SnapshotBuffer buffer = detail::zeroed_buffer(layout.total);
  std::byte* base = buffer.data();
  layout.store_header(base);
  write_adjacency_section(base + layout.offset[0], out_enc);
  write_adjacency_section(base + layout.offset[1], in_enc);
  std::copy(perm.begin(), perm.end(),
            reinterpret_cast<std::uint32_t*>(base + layout.offset[2]));
  std::copy(inv.begin(), inv.end(),
            reinterpret_cast<graph::NodeId*>(base + layout.offset[3]));
  std::copy(recip.begin(), recip.end(),
            reinterpret_cast<std::uint32_t*>(base + layout.offset[4]));
  auto* profiles = reinterpret_cast<PackedProfile*>(base + layout.offset[5]);
  core::parallel_for(n, 4096, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      profiles[u] = pack_profile(dataset.profiles[u]);
    }
  });
  layout.seal(base);
  return buffer;
}

}  // namespace

PackedProfile pack_profile(const synth::Profile& p) {
  PackedProfile out;
  out.gender = static_cast<std::uint8_t>(p.gender);
  out.relationship = static_cast<std::uint8_t>(p.relationship);
  out.occupation = static_cast<std::uint8_t>(p.occupation);
  out.flags = static_cast<std::uint8_t>((p.celebrity ? 1U : 0U) |
                                        (p.is_located() ? 2U : 0U) |
                                        (p.is_tel_user() ? 4U : 0U));
  out.country = p.country;
  out.shared_bits = p.shared.bits();
  return out;
}

SnapshotBuffer build_snapshot(const core::Dataset& dataset,
                              const SnapshotOptions& options) {
  const graph::DiGraph& g = dataset.graph();
  const std::size_t n = g.node_count();
  if (dataset.profiles.size() != n) fail("profile count != node count");
  if (options.version != kSnapshotVersion2 &&
      options.version != kSnapshotVersion3) {
    fail("unsupported build version " + std::to_string(options.version) +
         " (writers emit 2 and 3)");
  }
  if (options.version == kSnapshotVersion3) return build_snapshot_v3(dataset);
  return detail::write_flat_snapshot(DatasetRows{g, dataset.profiles},
                                     g.edge_count());
}

SnapshotView::SnapshotView(std::span<const std::byte> bytes) : bytes_(bytes) {
  const detail::SnapshotLayout layout = detail::SnapshotLayout::read(bytes);
  version_ = layout.version;
  nodes_ = layout.nodes;
  edges_ = layout.edges;
  for (std::size_t s = 0; s < kSnapshotDataSections; ++s) {
    sections_[s] = {layout.offset[s], layout.length(s)};
  }
  const std::byte* base = bytes.data();
  digests_ = reinterpret_cast<const std::uint64_t*>(
      base + layout.digest_table_at());
  auto section = [&](std::size_t s) { return base + layout.offset[s]; };

  if (layout.compressed()) {
    // O(1) row-index consistency: row 0 starts at stream byte 0 and the
    // sentinel lands exactly on the stream end.
    auto adjacency = [&](std::size_t s) {
      const std::string name = detail::section_name(version_, s);
      CompressedAdjacency adj;
      adj.data_bytes = layout.stream_bytes[s];
      adj.base = reinterpret_cast<const std::uint64_t*>(section(s) + 16);
      const std::byte* rel_at =
          section(s) + 16 + adjacency_group_count(nodes_) * 8;
      adj.rel = reinterpret_cast<const std::uint32_t*>(rel_at);
      adj.data = reinterpret_cast<const std::uint8_t*>(
          rel_at + pad8((nodes_ + 1) * 4));
      if (adj.base[0] != 0 || adj.rel[0] != 0) {
        fail(name + " row index corrupt (first row not at 0)");
      }
      if (adj.base[nodes_ / kSnapshotRowGroup] + adj.rel[nodes_] !=
          adj.data_bytes) {
        fail(name + " row index corrupt (sentinel != stream end)");
      }
      return adj;
    };
    out_adj_ = adjacency(0);
    in_adj_ = adjacency(1);
    perm_ = reinterpret_cast<const std::uint32_t*>(section(2));
    inv_ = reinterpret_cast<const std::uint32_t*>(section(3));
    recip_counts_ = reinterpret_cast<const std::uint32_t*>(section(4));
    // O(1) permutation sanity (full validation is the digest table's job).
    if (nodes_ > 0 && (perm_[0] >= nodes_ || inv_[perm_[0]] != 0)) {
      fail("perm/inv permutation corrupt");
    }
  } else {
    out_offsets_ = reinterpret_cast<const std::uint64_t*>(section(0));
    out_targets_ = reinterpret_cast<const graph::NodeId*>(section(1));
    in_offsets_ = reinterpret_cast<const std::uint64_t*>(section(2));
    in_targets_ = reinterpret_cast<const graph::NodeId*>(section(3));
    recip_ = reinterpret_cast<const std::uint64_t*>(section(4));
    if (out_offsets_[0] != 0 || out_offsets_[nodes_] != edges_) {
      fail("out_offsets inconsistent with edge count");
    }
    if (in_offsets_[0] != 0 || in_offsets_[nodes_] != edges_) {
      fail("in_offsets inconsistent with edge count");
    }
  }
  profiles_ = reinterpret_cast<const PackedProfile*>(section(5));
}

void SnapshotView::verify_sections() const {
  for (std::size_t s = 0; s < kSnapshotDataSections; ++s) {
    const auto [offset, length] = sections_[s];
    if (fnv1a64(bytes_.data() + offset, length) != digests_[s]) {
      fail(std::string(detail::section_name(version_, s)) +
           " section corrupt (digest mismatch)");
    }
  }
  for (std::size_t s = kSnapshotDataSections; s < kSnapshotSectionCount; ++s) {
    if (digests_[s] != 0) {
      fail("reserved digest slot " + std::to_string(s) + " is non-zero");
    }
  }
}

bool SnapshotView::has_edge(graph::NodeId u, graph::NodeId v) const noexcept {
  if (out_offsets_ != nullptr) {
    const auto out = flat_row(out_offsets_, out_targets_, u);
    return std::binary_search(out.begin(), out.end(), v);
  }
  AdjacencyListDecoder dec(out_adj_.row(perm_[u]), out_adj_.end());
  return dec.contains(v);
}

std::uint64_t SnapshotView::reciprocal_out_degree(
    graph::NodeId u) const noexcept {
  if (recip_counts_ != nullptr) return recip_counts_[u];
  const std::uint64_t begin = out_offsets_[u];
  const std::uint64_t end = out_offsets_[u + 1];
  if (begin == end) return 0;
  std::uint64_t count = 0;
  std::uint64_t w = begin >> 6;
  const std::uint64_t last = (end - 1) >> 6;
  for (; w <= last; ++w) {
    std::uint64_t word = recip_[w];
    if (w == begin >> 6) word &= ~std::uint64_t{0} << (begin & 63);
    if (w == last && (end & 63) != 0) {
      word &= (std::uint64_t{1} << (end & 63)) - 1;
    }
    count += static_cast<std::uint64_t>(std::popcount(word));
  }
  return count;
}

void write_snapshot(const SnapshotBuffer& snapshot, std::ostream& out) {
  const auto bytes = snapshot.bytes();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) fail("write failed");
}

bool sniff_snapshot_magic(std::istream& in) {
  char magic[8] = {};
  in.read(magic, sizeof magic);
  return in.gcount() == sizeof magic && detail::version_from_magic(magic) != 0;
}

SnapshotBuffer read_snapshot(std::istream& in) {
  // Value-initialized so a short read can never leave uninitialized bytes
  // behind; the stream state is checked before the header is trusted.
  std::array<char, kHeaderBytes> header{};
  in.read(header.data(), kHeaderBytes);
  if (!in) {
    fail("truncated header (shorter than the " +
         std::to_string(kHeaderBytes) + "-byte snapshot header)");
  }
  const auto* head = reinterpret_cast<const std::byte*>(header.data());
  detail::checked_magic(head);
  const std::uint64_t total = load_u64(head + 96);
  if (total < kHeaderBytes) fail("corrupt header (impossible size)");
  SnapshotBuffer buffer = detail::zeroed_buffer(total);
  std::memcpy(buffer.data(), header.data(), kHeaderBytes);
  in.read(reinterpret_cast<char*>(buffer.data()) + kHeaderBytes,
          static_cast<std::streamsize>(total - kHeaderBytes));
  if (!in) fail("truncated stream");
  SnapshotView view(buffer.bytes());  // full header/section validation
  (void)view;
  return buffer;
}

void save_snapshot(const SnapshotBuffer& snapshot,
                   const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot open for writing: " + path.string());
  write_snapshot(snapshot, out);
}

SnapshotBuffer load_snapshot(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open for reading: " + path.string());
  return read_snapshot(in);
}

}  // namespace gplus::serve
