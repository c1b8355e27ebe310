// Out-of-core v3 snapshot builder: paper-scale graphs on bounded RAM.
//
// `build_snapshot` needs the whole DiGraph in memory — fine at test
// scale, impossible at the paper's 35.1M nodes / 575M edges on a modest
// box. This builder streams edges instead:
//
//   add_edge ──▶ sort buffer ──▶ sorted run files      (external sort)
//   finish   ──▶ k-way dedup merge ──▶ edges_src (by (src,dst))
//            ──▶ chunk transform+sort ──▶ edges_dst (by (dst,src))
//            ──▶ rank permutation from the merged degree counts
//            ──▶ encode rows rank-ordered (pread per row, page-cached)
//            ──▶ reciprocal counts: two-pointer E ∩ reverse(E)
//            ──▶ assemble file, digest sections streaming, atomic rename
//
// Peak RAM is O(n) small arrays (degrees, permutation, row index,
// profiles) plus the sort buffer — the O(m) edge data never leaves disk.
// The merge drops duplicate edges and self-loops, exactly the
// GraphBuilder semantics, and every stage is deterministic, so the final
// file is byte-identical to `build_snapshot(..., {.version = 3})` on the
// same logical graph — a tested contract (tests/test_snapshot_equivalence)
// that also makes crash-resume verifiable: a resumed build must reproduce
// the uninterrupted bytes exactly. Both v3 builders share one layout, rank
// order and row-index builder (snapshot_format.h); each encodes its own
// rows, which is what keeps the in-memory build a useful oracle for this
// one.
//
// Crash recovery: flushed runs and the ingest count are recorded in a
// manifest (updated atomically after every flush). A new builder on the
// same work_dir resumes — the caller replays its deterministic edge
// stream and `add_edge` fast-forwards the first `resumed_edges()` calls
// without buffering; merge and encode are idempotent re-runs. The final
// snapshot appears via rename, so a crash never leaves a torn file at the
// output path.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string_view>
#include <vector>

#include "graph/types.h"
#include "serve/snapshot.h"
#include "synth/profile.h"

namespace gplus::serve {

struct OutOfCoreOptions {
  /// Scratch directory for runs, merged edge files and the manifest. Must
  /// stay intact across a crash for resume to work.
  std::filesystem::path work_dir;
  /// Edges buffered (8 bytes each) before a sorted run is flushed. The
  /// dominant RAM knob: default 16M edges = 128 MiB.
  std::size_t sort_buffer_edges = std::size_t{16} << 20;
  /// Test/observability hook, called with a stage name at every durable
  /// point ("run_flush", "merged_forward", "merged_reverse", "encoded",
  /// "assemble"). Returning false aborts the build by throwing — the
  /// resume test uses this to simulate a crash at exact stages. Null
  /// means never abort.
  std::function<bool(std::string_view stage)> checkpoint;
};

struct OutOfCoreStats {
  std::uint64_t edge_count = 0;      // after dedup / self-loop drop
  std::uint64_t total_bytes = 0;     // final snapshot file size
  std::uint64_t run_count = 0;       // sorted runs merged
  std::uint64_t resumed_edges = 0;   // edges fast-forwarded on resume
};

/// Streams a v3 snapshot to disk with O(n)+buffer peak RAM. Single-use:
/// construct, stream `add_edge`/`set_profile`, then `finish` once.
/// Ingest order must be deterministic for resume (replay the same
/// stream); the *merged* result is order-independent. All failures throw
/// std::runtime_error ("snapshot build: ..." messages).
class OutOfCoreSnapshotBuilder {
 public:
  OutOfCoreSnapshotBuilder(std::size_t node_count, OutOfCoreOptions options);
  ~OutOfCoreSnapshotBuilder();

  OutOfCoreSnapshotBuilder(const OutOfCoreSnapshotBuilder&) = delete;
  OutOfCoreSnapshotBuilder& operator=(const OutOfCoreSnapshotBuilder&) = delete;

  /// Edges already durable from an interrupted build in this work_dir.
  /// The caller replays its stream from the beginning; the first
  /// `resumed_edges()` add_edge calls are counted and dropped.
  std::uint64_t resumed_edges() const noexcept { return resumed_edges_; }

  /// Streams one directed edge. Duplicates and self-loops are tolerated
  /// and dropped at merge time.
  void add_edge(graph::NodeId src, graph::NodeId dst);

  /// Records u's profile (packed immediately; 16 bytes per node resident).
  /// Profiles are not persisted before finish — on resume the caller
  /// streams them again, which it does anyway when replaying the
  /// deterministic generator.
  void set_profile(graph::NodeId u, const synth::Profile& profile);

  /// Merges, encodes and atomically writes the snapshot to `path`.
  /// Scratch files are removed on success; the manifest survives only
  /// until the rename lands.
  OutOfCoreStats finish(const std::filesystem::path& path);

 private:
  void load_or_init_manifest();
  void write_manifest() const;
  void flush_run();
  void stage(std::string_view name);

  std::size_t nodes_ = 0;
  OutOfCoreOptions options_;
  std::vector<std::uint64_t> buffer_;        // packed (src<<32)|dst
  std::vector<PackedProfile> profiles_;
  std::uint64_t ingested_ = 0;               // edges accepted this process
  std::uint64_t skipped_ = 0;                // fast-forwarded on resume
  std::uint64_t resumed_edges_ = 0;          // durable before this process
  std::uint64_t run_count_ = 0;
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// Shard splitter: one snapshot -> K self-contained vertex-shard snapshots.
//
// Ownership is striped over the degree-ordered rank space (total degree
// descending, ties by ascending id — the same total order v3 relabels by),
// owner(u) = rank(u) % K, so hubs spread evenly across shards regardless
// of id layout.
//
// Shard s stores the edge set E_s = {(a,b) : owner(a)==s or owner(b)==s}
// as a standard v2 snapshot — written by the same flat writer as
// `build_snapshot` — with the GLOBAL node id space (node_count = n,
// edge_count = |E_s|). That makes every owned row complete on both sides:
// out/in circles, degrees and the reciprocal bitmap of an owned node are
// bit-equal to the unsharded snapshot — the invariant that lets the
// cluster answer single-shard request families answer-identically to the
// unsharded engine (DESIGN.md §13). Non-owned rows are partial and are
// never served directly.
// ---------------------------------------------------------------------------

/// Node -> owning shard map, shared by the splitter and the router. At
/// most 256 shards (owner ids are one byte).
struct RoutingTable {
  std::uint32_t shard_count = 0;
  std::vector<std::uint8_t> owner;  // indexed by global node id

  std::size_t node_count() const noexcept { return owner.size(); }
  std::size_t owner_shard(graph::NodeId u) const noexcept { return owner[u]; }
};

struct ShardingOptions {
  std::size_t shard_count = 4;
};

/// A split snapshot: the routing table plus one self-contained v2 shard
/// snapshot per shard (open each with SnapshotView over shard.bytes()).
struct ShardedSnapshot {
  RoutingTable routing;
  std::vector<SnapshotBuffer> shards;
};

/// Splits `full` into `options.shard_count` vertex shards. Deterministic
/// in (snapshot bytes, options) at any GPLUS_THREADS; works on either
/// snapshot version (v2/v3). Throws std::runtime_error on
/// shard_count of 0, > 256, or > node_count.
ShardedSnapshot split_snapshot(const SnapshotView& full,
                               const ShardingOptions& options);

}  // namespace gplus::serve
