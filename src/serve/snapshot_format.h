// The snapshot layout, decided once for every writer and the reader.
//
// `SnapshotLayout` owns the format arithmetic: which six sections a file
// of each version carries, their lengths, the order and offsets that
// follow, the 112-byte header with its checksum, and the trailing 72-byte
// digest table. Every writer — the flat writer (build_snapshot v2 and the
// shard splitter), the in-memory v3 encoder and the out-of-core v3 builder
// — places its sections with `place()` and seals them with the same header
// and digest-table stores, and the reader validates a file with `read()`.
// The shared pieces of content every writer needs (the degree-rank order,
// the compressed row index) live here too, so each is computed by one
// function. Not part of the public snapshot API.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/parallel.h"
#include "graph/types.h"
#include "serve/snapshot.h"

namespace gplus::serve::detail {

inline constexpr char kMagicV2[8] = {'G', 'P', 'S', 'N', 'A', 'P', '0', '2'};
inline constexpr char kMagicV3[8] = {'G', 'P', 'S', 'N', 'A', 'P', '0', '3'};
inline constexpr std::size_t kHeaderBytes = 112;
inline constexpr std::size_t kChecksumOffset = 104;

/// Parses the 8-byte magic into a version, or 0 when it is not one this
/// reader knows.
inline std::uint32_t version_from_magic(const void* magic) {
  if (std::memcmp(magic, kMagicV2, sizeof kMagicV2) == 0) return 2;
  if (std::memcmp(magic, kMagicV3, sizeof kMagicV3) == 0) return 3;
  return 0;
}

/// The version a known magic names; throws std::runtime_error on anything
/// else. A retired or future "GPSNAPxx" gets its own message, so an old
/// file is not reported as foreign.
std::uint32_t checked_magic(const std::byte* magic);

inline std::uint64_t fnv1a64(const std::byte* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t pad8(std::uint64_t bytes) {
  return (bytes + 7) & ~std::uint64_t{7};
}

inline void store_u32(std::byte* at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    at[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

inline void store_u64(std::byte* at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    at[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

inline std::uint32_t load_u32(const std::byte* at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(at[i]) << (8 * i);
  }
  return v;
}

inline std::uint64_t load_u64(const std::byte* at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(at[i]) << (8 * i);
  }
  return v;
}

// The view reinterprets sections in place, which is only correct on a
// little-endian host; big-endian would need a byte-swapping copy at open.
static_assert(std::endian::native == std::endian::little,
              "snapshot in-place views require a little-endian host");

/// u64 base entries in a compressed adjacency row index for n rows.
inline std::uint64_t adjacency_group_count(std::uint64_t n) {
  return n / 64 + 1;
}

/// Total bytes of one compressed adjacency section: 16-byte subheader,
/// group base array, padded per-row rel array, padded varint stream.
inline std::uint64_t adjacency_section_bytes(std::uint64_t n,
                                             std::uint64_t data_bytes) {
  return 16 + adjacency_group_count(n) * 8 + pad8((n + 1) * 4) +
         pad8(data_bytes);
}

/// Where every section of one snapshot file lies. Writers get one from
/// `place()`; the reader gets a validated one from `read()`.
struct SnapshotLayout {
  std::uint32_t version = kSnapshotVersion2;
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  /// v3 only: unpadded varint stream bytes of the out- and in-adjacency.
  std::array<std::uint64_t, 2> stream_bytes{};
  /// Byte offset of each data section in header order.
  std::array<std::uint64_t, kSnapshotDataSections> offset{};
  /// File size, digest table included.
  std::uint64_t total = 0;

  bool compressed() const noexcept { return version == kSnapshotVersion3; }
  /// Byte length of data section s, padding included.
  std::uint64_t length(std::size_t s) const;
  std::uint64_t digest_table_at() const noexcept {
    return total - kSnapshotDigestBytes;
  }

  /// Lays a file's data sections out back to back after the header, in
  /// header order. `stream_bytes` is read for v3 only.
  static SnapshotLayout place(std::uint32_t version, std::uint64_t nodes,
                              std::uint64_t edges,
                              std::array<std::uint64_t, 2> stream_bytes);

  /// Validates a file's header (reserved fields zero), digest-table
  /// checksum and section extents (aligned, inside the body, counts the
  /// body can hold) and returns its layout. Throws std::runtime_error
  /// ("snapshot: ...") on any defect.
  static SnapshotLayout read(std::span<const std::byte> bytes);

  /// Writes the 112-byte header, reserved fields zero and checksum
  /// included, at `at`.
  void store_header(std::byte* at) const;
  /// Digests every section of an assembled in-memory file at `base` and
  /// writes the trailing table.
  void seal(std::byte* base) const;
};

/// Section name in error messages ("out_targets", "perm", ...).
const char* section_name(std::uint32_t version, std::size_t s) noexcept;

/// Writes the 72-byte digest table at `at`: the eight slot digests (0 for
/// the reserved slots), then a checksum over those 64 bytes.
void store_digest_table(
    std::byte* at,
    const std::array<std::uint64_t, kSnapshotSectionCount>& digests);

/// Zero-filled, 8-byte-aligned buffer of `total` bytes.
inline SnapshotBuffer zeroed_buffer(std::uint64_t total) {
  return SnapshotBuffer(std::vector<std::uint64_t>((total + 7) / 8, 0), total);
}

/// Degree-rank order (rank -> node id): total degree descending, id
/// ascending on ties, so hubs come first. v3 stores its rows in this
/// order and the shard splitter assigns owners over it.
template <typename TotalDegree>
std::vector<graph::NodeId> degree_rank_order(std::size_t n,
                                             TotalDegree&& total_degree) {
  std::vector<graph::NodeId> order(n);
  std::iota(order.begin(), order.end(), graph::NodeId{0});
  std::sort(order.begin(), order.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              const std::uint64_t da = total_degree(a);
              const std::uint64_t db = total_degree(b);
              if (da != db) return da > db;
              return a < b;
            });
  return order;
}

/// Two-level row index of one compressed adjacency section, built row by
/// row in rank order: a u64 base per 64-row group and a u32 offset per row
/// relative to its group's base (so no group may span more than 4 GiB).
class RowIndexBuilder {
 public:
  explicit RowIndexBuilder(std::uint64_t rows);

  /// Records that the next row starts at stream byte `at`.
  void add_row(std::uint64_t at);
  /// Pads the group bases and appends the end sentinel at stream byte
  /// `end`, after all rows were added.
  void finish(std::uint64_t end);

  const std::vector<std::uint64_t>& base() const noexcept { return base_; }
  const std::vector<std::uint32_t>& rel() const noexcept { return rel_; }

 private:
  void push_rel(std::uint64_t at);

  std::uint64_t rows_ = 0;
  std::vector<std::uint64_t> base_;
  std::vector<std::uint32_t> rel_;
};

/// The one flat (v2) writer. `rows` supplies the graph:
///   node_count(), out_degree(u), in_degree(u)
///   write_out(u, NodeId* dst), write_in(u, NodeId* dst)  — ascending rows
///   has_edge(a, b)                                        — reciprocity
///   write_profile(u, PackedProfile& slot)  — may leave the slot zero
/// `edges` must equal the sum of either degree. Degrees are stored straight
/// into the offset sections and prefix-summed there; rows, profiles and the
/// reciprocal bitmap are written in parallel with disjoint writes, so the
/// bytes are the same at any thread count.
template <typename Rows>
SnapshotBuffer write_flat_snapshot(const Rows& rows, std::uint64_t edges) {
  const std::size_t n = rows.node_count();
  const SnapshotLayout layout =
      SnapshotLayout::place(kSnapshotVersion2, n, edges, {});

  SnapshotBuffer buffer = zeroed_buffer(layout.total);
  std::byte* base = buffer.data();
  layout.store_header(base);
  auto* out_offsets = reinterpret_cast<std::uint64_t*>(base + layout.offset[0]);
  auto* out_targets = reinterpret_cast<graph::NodeId*>(base + layout.offset[1]);
  auto* in_offsets = reinterpret_cast<std::uint64_t*>(base + layout.offset[2]);
  auto* in_targets = reinterpret_cast<graph::NodeId*>(base + layout.offset[3]);
  auto* recip = reinterpret_cast<std::uint64_t*>(base + layout.offset[4]);
  auto* profiles = reinterpret_cast<PackedProfile*>(base + layout.offset[5]);

  core::parallel_for(n, 1024, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      const auto id = static_cast<graph::NodeId>(u);
      out_offsets[u + 1] = rows.out_degree(id);
      in_offsets[u + 1] = rows.in_degree(id);
    }
  });
  for (std::size_t u = 0; u < n; ++u) {
    out_offsets[u + 1] += out_offsets[u];
    in_offsets[u + 1] += in_offsets[u];
  }
  if (out_offsets[n] != edges || in_offsets[n] != edges) {
    throw std::runtime_error("snapshot: row degrees disagree with edge count");
  }

  core::parallel_for(n, 1024, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      const auto id = static_cast<graph::NodeId>(u);
      rows.write_out(id, out_targets + out_offsets[u]);
      rows.write_in(id, in_targets + in_offsets[u]);
      rows.write_profile(id, profiles[u]);
    }
  });

  // Reciprocal bitmap: a parallel per-edge byte pass (disjoint writes),
  // then a serial bit-packing sweep.
  std::vector<std::uint8_t> recip_bytes(edges, 0);
  core::parallel_for(n, 256, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      const auto id = static_cast<graph::NodeId>(u);
      for (std::uint64_t e = out_offsets[u]; e < out_offsets[u + 1]; ++e) {
        if (rows.has_edge(out_targets[e], id)) recip_bytes[e] = 1;
      }
    }
  });
  for (std::uint64_t e = 0; e < edges; ++e) {
    if (recip_bytes[e]) recip[e >> 6] |= std::uint64_t{1} << (e & 63);
  }

  layout.seal(base);
  return buffer;
}

}  // namespace gplus::serve::detail
