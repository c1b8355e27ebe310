// Immutable serving snapshot: the query layer's on-disk / in-memory format.
//
// The batch pipeline (generate → analyze) works on the mutable builder
// structures in `core::Dataset`; the serving path must not. A snapshot is
// one contiguous little-endian byte buffer holding everything the request
// engine reads — adjacency, reciprocity and packed per-user profile
// records — so a server opens it in O(1) as a read-only view
// (`SnapshotView`) with zero parsing and zero pointer chasing beyond the
// header. The same validated-open contract holds
// whether the bytes live in RAM (`SnapshotBuffer`) or are memory-mapped
// straight off disk (`MappedSnapshot`, snapshot_file.h) — paper-scale
// files are served off `mmap` without ever materializing in the heap.
//
// Layout (all integers little-endian; every section 8-byte aligned):
//
//   offset  size  field
//        0     8  magic "GPSNAP0" + version digit ("GPSNAP02", "GPSNAP03")
//        8     4  version (2 or 3; must agree with the magic digits)
//       12     4  flags (reserved, 0)
//       16     8  node_count n
//       24     8  edge_count m
//       32     8  offset of section A (see the per-version table below)
//       40     8  offset of section B
//       48     8  offset of section C
//       56     8  offset of section D
//       64     8  offset of section E
//       72     8  offset of profiles      (n × 16-byte PackedProfile)
//       80     8  reserved (0)
//       88     8  reserved (0)
//       96     8  total_bytes (must equal the buffer size)
//      104     8  header checksum (FNV-1a over bytes [0, 104))
//
// Version 2 stores flat CSR adjacency:
//
//   A: out_offsets ((n+1) × u64)      B: out_targets (m × u32, padded)
//   C: in_offsets  ((n+1) × u64)      D: in_targets  (m × u32, padded)
//   E: recip bitmap (ceil(m/64) × u64; bit e set when out-edge e — global
//      CSR index — has its reverse edge present)
//
// Version 3 ("GPSNAP03") stores webgraph-style compressed adjacency in the
// same five slots — readers key every interpretation on the version they
// already refused-or-accepted, so no slot is ever misread:
//
//   A: compressed out-adjacency       B: compressed in-adjacency
//   C: perm (n × u32: node id → degree rank)
//   D: inv  (n × u32: degree rank → node id)
//   E: recip_counts (n × u32: reciprocal out-degree per node — the v2
//      bitmap's only query, precomputed; the per-edge bitmap itself does
//      not survive compression because v3 has no global flat edge index)
//
// A compressed adjacency section holds one varint gap stream (varint.h)
// per node, rows ordered by *degree rank* — hubs first — so the hottest
// lists cluster in the file's first pages under mmap:
//
//        0      8   data_bytes D (unpadded byte length of the stream)
//        8      8   reserved (0)
//       16      (floor(n/64)+1) × u8  group base: base[g] = byte offset of
//                   row 64g's list within the stream (u64)
//      then    pad8((n+1) × u32)  rel: row r starts at base[r>>6] + rel[r];
//                   entry n is the end sentinel (start(n) == D)
//      then    pad8(D)  the varint stream itself
//
// Neighbor ids inside each row stay in *original* id space, sorted
// ascending — exactly the v2 list order — so every decoded answer is
// byte-identical to the flat format without a per-query sort or inverse
// mapping; the rank permutation only chooses row placement (locality),
// never payload content. The split u64-per-64-rows / u32-per-row index
// keeps the per-node overhead at ~4.1 bytes while capping any 64-row
// group at 4 GiB of stream (enforced at build).
//
// Both versions end in one table occupying the file's final 72 bytes:
// eight u64 FNV-1a digests, one per header section slot in order (0 for
// the two reserved slots), followed by a u64 FNV-1a checksum of those 64
// digest bytes. The table lets a reader verify section *bodies* — not just
// the header — before swapping a candidate snapshot into service
// (`verify_sections`).
//
// Version policy: readers reject any version they do not know — the
// retired v1 ("GPSNAP0" + '1', no digest table) included; format changes
// bump the version and keep the header field positions stable so a vN
// reader can refuse — never misread — a vN+1 file. The flags word,
// header slots 80/88 and digest slots 6/7 are reserved: writers leave them
// zero and the reader refuses a file that sets one, so an offset it does
// not know is an error, never a span it follows. (Files from builds that
// wrote the retired country index there are refused; rebuild them.) One
// internal layout (snapshot_format.h) places and validates the sections
// for every writer and the reader.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "graph/types.h"
#include "serve/varint.h"

namespace gplus::serve {

inline constexpr std::uint32_t kSnapshotVersion2 = 2;
inline constexpr std::uint32_t kSnapshotVersion3 = 3;
/// Version the in-memory builder emits by default. v3 (compressed
/// adjacency) is opt-in: it exists for paper-scale files where flat CSR
/// does not fit, and the serving layer answers identically over either —
/// tests/test_snapshot_equivalence.cpp is the proof.
inline constexpr std::uint32_t kSnapshotVersion = kSnapshotVersion2;
/// Header section slots, each with a digest in the trailing table.
inline constexpr std::size_t kSnapshotSectionCount = 8;
/// Slots every file fills: [0, 6). Slots 6 and 7 are reserved (zero).
inline constexpr std::size_t kSnapshotDataSections = 6;
/// Size of the trailing table: 8 section digests + 1 table checksum.
inline constexpr std::size_t kSnapshotDigestBytes =
    (kSnapshotSectionCount + 1) * 8;
/// Rows per u64 base entry in a compressed adjacency row index.
inline constexpr std::uint32_t kSnapshotRowGroup = 64;

/// Fixed 16-byte per-user record: the publicly servable profile view.
struct PackedProfile {
  std::uint8_t gender = 0;
  std::uint8_t relationship = 0;
  std::uint8_t occupation = 0;
  /// bit 0: celebrity, bit 1: located (§4 cohort), bit 2: tel-user (§3.2).
  std::uint8_t flags = 0;
  std::uint16_t country = 0xFFFF;
  std::uint16_t reserved0 = 0;
  std::uint32_t shared_bits = 0;
  std::uint32_t reserved1 = 0;

  bool celebrity() const noexcept { return (flags & 1U) != 0; }
  bool located() const noexcept { return (flags & 2U) != 0; }
  bool tel_user() const noexcept { return (flags & 4U) != 0; }

  friend bool operator==(const PackedProfile&, const PackedProfile&) = default;
};
static_assert(sizeof(PackedProfile) == 16);

/// Snapshot build knobs.
struct SnapshotOptions {
  /// Format version to emit: kSnapshotVersion2 (flat CSR, default) or
  /// kSnapshotVersion3 (compressed adjacency). Anything else throws.
  std::uint32_t version = kSnapshotVersion;
};

/// Owns snapshot bytes with 8-byte alignment (backed by u64 storage so the
/// view may reinterpret aligned sections in place).
class SnapshotBuffer {
 public:
  SnapshotBuffer() = default;
  explicit SnapshotBuffer(std::vector<std::uint64_t> words, std::size_t bytes)
      : words_(std::move(words)), bytes_(bytes) {}

  std::span<const std::byte> bytes() const noexcept {
    return {reinterpret_cast<const std::byte*>(words_.data()), bytes_};
  }
  std::size_t size() const noexcept { return bytes_; }
  bool empty() const noexcept { return bytes_ == 0; }

  /// Mutable raw access for the builder/loader only.
  std::byte* data() noexcept {
    return reinterpret_cast<std::byte*>(words_.data());
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t bytes_ = 0;
};

/// Packs a builder-side profile into its 16-byte serving record. One
/// definition shared by every snapshot writer, so profile bytes can never
/// diverge between the in-memory and out-of-core builds.
PackedProfile pack_profile(const synth::Profile& profile);

/// Serializes a dataset into the snapshot format. Deterministic: the same
/// dataset and options produce byte-identical buffers at any thread count
/// — and, for v3, byte-identical to the out-of-core builder
/// (snapshot_build.h) fed the same edges and profiles.
SnapshotBuffer build_snapshot(const core::Dataset& dataset,
                              const SnapshotOptions& options = {});

/// Forward cursor over one node's neighbor list, independent of whether
/// the snapshot stores it flat (v2 span walk) or compressed (v3 varint
/// decode). Either way entries come out in ascending original-id order —
/// the engine runs one code path over both formats, which is how v3
/// answers stay bit-identical to v2. Cheap to construct; not thread-safe
/// (use one per traversal), but any number may scan the same view
/// concurrently.
class NeighborScan {
 public:
  NeighborScan() = default;
  explicit NeighborScan(std::span<const graph::NodeId> flat) noexcept
      : flat_(flat.data()), flat_size_(flat.size()) {}
  NeighborScan(const std::uint8_t* p, const std::uint8_t* end) noexcept
      : dec_(p, end) {}

  /// Entries in the list.
  std::uint64_t size() const noexcept {
    return flat_ != nullptr ? flat_size_ : dec_.degree();
  }
  /// Yields the next entry; false at end-of-list (or on corrupt bytes —
  /// decode is bounds-checked and fails closed).
  bool next(graph::NodeId& v) noexcept {
    if (flat_ != nullptr) {
      if (pos_ >= flat_size_) return false;
      v = flat_[pos_++];
      return true;
    }
    return dec_.next(v);
  }
  /// Positions so the next `next()` yields entry `entry` (block-skip on
  /// compressed lists). False when `entry` is past the end.
  bool skip_to(std::uint64_t entry) noexcept {
    if (flat_ != nullptr) {
      if (entry > flat_size_) return false;
      pos_ = entry;
      return true;
    }
    return dec_.skip_to(entry);
  }

 private:
  const graph::NodeId* flat_ = nullptr;
  std::uint64_t flat_size_ = 0;
  std::uint64_t pos_ = 0;
  AdjacencyListDecoder dec_;
};

/// Read-only, O(1)-open view over a snapshot buffer. Validates the header
/// (magic, version, checksum, section bounds) on construction and throws
/// std::runtime_error with a specific message on any defect; accessors
/// afterwards are unchecked loads into the buffer (compressed decode stays
/// bounds-checked — it fails closed rather than reading out of bounds).
/// The buffer must outlive the view.
class SnapshotView {
 public:
  explicit SnapshotView(std::span<const std::byte> bytes);

  std::size_t node_count() const noexcept { return nodes_; }
  std::size_t edge_count() const noexcept { return edges_; }
  /// Format version of the underlying file (2 or 3).
  std::uint32_t version() const noexcept { return version_; }
  /// True when adjacency is stored compressed (v3).
  bool adjacency_compressed() const noexcept {
    return version_ == kSnapshotVersion3;
  }

  /// Deep validation: recomputes every section's FNV-1a digest, over the
  /// extents validated at open, against the trailing table and throws
  /// std::runtime_error naming the first corrupt section. O(total bytes) —
  /// the hot-swap install path runs it on candidates; the O(1)
  /// constructor does not.
  void verify_sections() const;

  /// Format-agnostic neighbor cursors (ascending original ids, both
  /// formats): the graph-view cursors of algo/graph_view.h. The view must
  /// outlive the scan.
  NeighborScan out_scan(graph::NodeId u) const noexcept {
    if (out_offsets_ != nullptr) {
      return NeighborScan(flat_row(out_offsets_, out_targets_, u));
    }
    return NeighborScan(out_adj_.row(perm_[u]), out_adj_.end());
  }
  NeighborScan in_scan(graph::NodeId u) const noexcept {
    if (in_offsets_ != nullptr) {
      return NeighborScan(flat_row(in_offsets_, in_targets_, u));
    }
    return NeighborScan(in_adj_.row(perm_[u]), in_adj_.end());
  }

  std::uint64_t out_degree(graph::NodeId u) const noexcept {
    if (out_offsets_ != nullptr) return out_offsets_[u + 1] - out_offsets_[u];
    return out_adj_.row_degree(perm_[u]);
  }
  std::uint64_t in_degree(graph::NodeId u) const noexcept {
    if (in_offsets_ != nullptr) return in_offsets_[u + 1] - in_offsets_[u];
    return in_adj_.row_degree(perm_[u]);
  }

  /// Degree-rank helpers (v3; rank r == r for flat formats). Sequential
  /// rank-order scans are the cache-friendly way to walk a compressed
  /// snapshot (rows are stored in rank order).
  graph::NodeId rank_to_node(std::uint32_t rank) const noexcept {
    return inv_ != nullptr ? inv_[rank] : rank;
  }
  std::uint32_t node_to_rank(graph::NodeId u) const noexcept {
    return perm_ != nullptr ? perm_[u] : u;
  }

  /// True when u -> v exists. O(log out_degree(u)) flat; O(log blocks +
  /// one block decode) compressed.
  bool has_edge(graph::NodeId u, graph::NodeId v) const noexcept;

  /// Number of u's out-edges whose reverse edge exists (v2: popcount
  /// over the reciprocal bitmap range; v3: precomputed per-node count).
  std::uint64_t reciprocal_out_degree(graph::NodeId u) const noexcept;

  const PackedProfile& profile(graph::NodeId u) const noexcept {
    return profiles_[u];
  }

  std::span<const std::byte> bytes() const noexcept { return bytes_; }

 private:
  /// One compressed (v3) adjacency section, resolved to pointers.
  struct CompressedAdjacency {
    const std::uint64_t* base = nullptr;  // u64 per 64-row group
    const std::uint32_t* rel = nullptr;   // u32 per row, n+1 entries
    const std::uint8_t* data = nullptr;   // varint stream
    std::uint64_t data_bytes = 0;

    const std::uint8_t* row(std::uint32_t rank) const noexcept {
      return data + base[rank / kSnapshotRowGroup] + rel[rank];
    }
    const std::uint8_t* end() const noexcept { return data + data_bytes; }
    std::uint64_t row_degree(std::uint32_t rank) const noexcept {
      std::uint64_t degree = 0;
      get_varint(row(rank), end(), degree);
      return degree;
    }
  };

  /// Row u of a flat (v2) CSR direction.
  static std::span<const graph::NodeId> flat_row(
      const std::uint64_t* offsets, const graph::NodeId* targets,
      graph::NodeId u) noexcept {
    return {targets + offsets[u],
            static_cast<std::size_t>(offsets[u + 1] - offsets[u])};
  }

  /// One data section's place in the file.
  struct Extent {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };

  std::span<const std::byte> bytes_;
  std::uint32_t version_ = 0;
  std::size_t nodes_ = 0;
  std::size_t edges_ = 0;
  // v2 flat adjacency (null on v3).
  const std::uint64_t* out_offsets_ = nullptr;
  const graph::NodeId* out_targets_ = nullptr;
  const std::uint64_t* in_offsets_ = nullptr;
  const graph::NodeId* in_targets_ = nullptr;
  const std::uint64_t* recip_ = nullptr;
  // v3 compressed adjacency (empty on v2).
  CompressedAdjacency out_adj_;
  CompressedAdjacency in_adj_;
  const std::uint32_t* perm_ = nullptr;
  const std::uint32_t* inv_ = nullptr;
  const std::uint32_t* recip_counts_ = nullptr;
  // Both versions.
  const PackedProfile* profiles_ = nullptr;
  /// Data section extents validated at open, in header order.
  std::array<Extent, kSnapshotDataSections> sections_{};
  /// The trailing digest table (8 section digests + table checksum).
  const std::uint64_t* digests_ = nullptr;
};

/// True when the stream starts with a known snapshot magic. Consumes up to
/// 8 bytes; never throws on short or unreadable input — it just answers
/// "not a snapshot".
bool sniff_snapshot_magic(std::istream& in);

/// Stream / file serialization of the raw snapshot bytes. Loading validates
/// by opening a SnapshotView over the result; all failures throw
/// std::runtime_error ("snapshot: ..." messages, same discipline as
/// core/dataset_io).
void write_snapshot(const SnapshotBuffer& snapshot, std::ostream& out);
SnapshotBuffer read_snapshot(std::istream& in);
void save_snapshot(const SnapshotBuffer& snapshot,
                   const std::filesystem::path& path);
SnapshotBuffer load_snapshot(const std::filesystem::path& path);

}  // namespace gplus::serve
