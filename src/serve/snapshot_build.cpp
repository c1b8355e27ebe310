#include "serve/snapshot_build.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/parallel.h"
#include "serve/snapshot_format.h"
#include "serve/varint.h"

namespace gplus::serve {

namespace {

using detail::fnv1a64;
using detail::kHeaderBytes;
using detail::load_u32;
using detail::load_u64;
using detail::pad8;
using detail::store_u32;
using detail::store_u64;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("snapshot build: " + what);
}

/// Buffered sequential u64 reader over one scratch file.
class U64Reader {
 public:
  explicit U64Reader(const std::filesystem::path& path)
      : chunk_(1 << 16) {
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr) fail("cannot open for reading: " + path.string());
  }
  ~U64Reader() {
    if (file_ != nullptr) std::fclose(file_);
  }
  U64Reader(const U64Reader&) = delete;
  U64Reader& operator=(const U64Reader&) = delete;

  bool next(std::uint64_t& v) {
    if (at_ == filled_) {
      filled_ = std::fread(chunk_.data(), 8, chunk_.size(), file_);
      at_ = 0;
      if (filled_ == 0) return false;
    }
    v = chunk_[at_++];
    return true;
  }

 private:
  std::FILE* file_ = nullptr;
  std::vector<std::uint64_t> chunk_;
  std::size_t at_ = 0;
  std::size_t filled_ = 0;
};

/// Buffered byte writer; fails loudly on short writes.
class ByteWriter {
 public:
  explicit ByteWriter(const std::filesystem::path& path) : path_(path) {
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr) fail("cannot open for writing: " + path.string());
  }
  ~ByteWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void write(const void* data, std::size_t n) {
    if (n != 0 && std::fwrite(data, 1, n, file_) != n) {
      fail("write failed: " + path_.string());
    }
    written_ += n;
  }
  std::uint64_t written() const noexcept { return written_; }
  void close() {
    if (file_ != nullptr && std::fclose(file_) != 0) {
      file_ = nullptr;
      fail("close failed: " + path_.string());
    }
    file_ = nullptr;
  }

 private:
  std::filesystem::path path_;
  std::FILE* file_ = nullptr;
  std::uint64_t written_ = 0;
};

std::filesystem::path run_path(const std::filesystem::path& dir,
                               std::uint64_t i) {
  return dir / ("run_" + std::to_string(i) + ".u64");
}

/// K-way ascending merge of sorted u64 run files into `out`, applying
/// `keep` to each distinct value (return false to drop it). Duplicates —
/// within or across runs — collapse to one. Returns the kept count.
template <typename Keep>
std::uint64_t merge_sorted_runs(const std::filesystem::path& dir,
                                std::uint64_t run_count,
                                const std::filesystem::path& out_path,
                                Keep&& keep) {
  std::vector<std::unique_ptr<U64Reader>> readers;
  readers.reserve(run_count);
  using Head = std::pair<std::uint64_t, std::size_t>;  // value, run index
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heap;
  for (std::uint64_t i = 0; i < run_count; ++i) {
    readers.push_back(std::make_unique<U64Reader>(run_path(dir, i)));
    std::uint64_t v = 0;
    if (readers.back()->next(v)) heap.emplace(v, i);
  }
  ByteWriter out(out_path);
  std::uint64_t kept = 0;
  bool have_last = false;
  std::uint64_t last = 0;
  std::vector<std::uint64_t> pending;
  pending.reserve(1 << 16);
  auto flush_pending = [&] {
    out.write(pending.data(), pending.size() * 8);
    pending.clear();
  };
  while (!heap.empty()) {
    const auto [value, idx] = heap.top();
    heap.pop();
    std::uint64_t next = 0;
    if (readers[idx]->next(next)) heap.emplace(next, idx);
    if (have_last && value == last) continue;  // global dedup
    have_last = true;
    last = value;
    if (!keep(value)) continue;
    pending.push_back(value);
    if (pending.size() == pending.capacity()) flush_pending();
    ++kept;
  }
  flush_pending();
  out.close();
  return kept;
}

/// Sorts `chunk` and appends it as run `run_count` (which is incremented).
void write_run(const std::filesystem::path& dir, std::uint64_t& run_count,
               std::vector<std::uint64_t>& chunk) {
  std::sort(chunk.begin(), chunk.end());
  ByteWriter out(run_path(dir, run_count));
  out.write(chunk.data(), chunk.size() * 8);
  out.close();
  ++run_count;
  chunk.clear();
}

/// One encoded adjacency stream on disk plus its in-RAM row index.
struct EncodedStream {
  std::filesystem::path path;
  detail::RowIndexBuilder index;
  std::uint64_t data_bytes = 0;
};

/// Read-only descriptor, closed on every exit path.
struct ReadFd {
  explicit ReadFd(const std::filesystem::path& path)
      : fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd < 0) fail("cannot open merged edges: " + path.string());
  }
  ~ReadFd() { ::close(fd); }
  ReadFd(const ReadFd&) = delete;
  ReadFd& operator=(const ReadFd&) = delete;
  int fd;
};

/// Encodes every row in rank order, reading each node's edge range from
/// the sorted edge file via pread (sequential files stay page-cached;
/// row reads hop with the permutation but never load the file whole).
/// Neighbor ids are the low 32 bits of each packed tuple. The rows and
/// row index are the ones the in-memory v3 encoder emits; the
/// equivalence battery holds the two builds to the same bytes.
EncodedStream encode_rows(const std::filesystem::path& edges_path,
                          const std::vector<std::uint64_t>& prefix,
                          const std::vector<graph::NodeId>& inv,
                          std::size_t n,
                          const std::filesystem::path& stream_path) {
  const ReadFd edges(edges_path);
  EncodedStream enc{stream_path, detail::RowIndexBuilder(n), 0};
  ByteWriter out(stream_path);
  std::vector<std::uint64_t> tuples;
  std::vector<graph::NodeId> row;
  std::vector<std::uint8_t> bytes;
  for (std::uint32_t r = 0; r < n; ++r) {
    enc.index.add_row(out.written());
    const std::uint32_t u = inv[r];
    const std::uint64_t degree = prefix[u + 1] - prefix[u];
    tuples.resize(degree);
    std::size_t got = 0;
    while (got < degree * 8) {
      const ssize_t k =
          ::pread(edges.fd, reinterpret_cast<char*>(tuples.data()) + got,
                  degree * 8 - got,
                  static_cast<off_t>(prefix[u] * 8 + got));
      if (k <= 0) fail("short read from merged edges: " + edges_path.string());
      got += static_cast<std::size_t>(k);
    }
    row.resize(degree);
    for (std::uint64_t i = 0; i < degree; ++i) {
      row[i] = static_cast<graph::NodeId>(tuples[i] & 0xFFFFFFFFULL);
    }
    bytes.clear();
    encode_adjacency_list(row, bytes);
    out.write(bytes.data(), bytes.size());
  }
  enc.index.finish(out.written());
  enc.data_bytes = out.written();
  out.close();
  return enc;
}

/// Assembly writer: tracks the file offset and hashes whatever lands
/// inside the open section, so multi-gigabyte sections digest as they
/// stream instead of needing a second pass.
class SectionedWriter {
 public:
  explicit SectionedWriter(const std::filesystem::path& path) : out_(path) {}

  void write(const void* data, std::size_t n) {
    if (hashing_) hasher_.update(data, n);
    out_.write(data, n);
  }
  void begin_section() {
    hasher_ = Fnv1aHasher();
    hashing_ = true;
  }
  std::uint64_t end_section() {
    hashing_ = false;
    return hasher_.digest();
  }
  void pad_to8() {
    static constexpr std::array<std::uint8_t, 8> zeros{};
    const std::uint64_t tail = out_.written() % 8;
    if (tail != 0) write(zeros.data(), 8 - tail);
  }
  void append_file(const std::filesystem::path& path) {
    // Scratch varint streams are byte-granular; copy them as raw bytes.
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) fail("cannot reopen stream: " + path.string());
    std::vector<std::uint8_t> chunk(1 << 20);
    std::size_t n = 0;
    while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
      write(chunk.data(), n);
    }
    std::fclose(f);
  }
  std::uint64_t written() const noexcept { return out_.written(); }
  void close() { out_.close(); }

 private:
  ByteWriter out_;
  Fnv1aHasher hasher_;
  bool hashing_ = false;
};

}  // namespace

OutOfCoreSnapshotBuilder::OutOfCoreSnapshotBuilder(std::size_t node_count,
                                                   OutOfCoreOptions options)
    : nodes_(node_count), options_(std::move(options)) {
  if (options_.work_dir.empty()) fail("work_dir is required");
  if (options_.sort_buffer_edges == 0) fail("sort_buffer_edges must be > 0");
  std::filesystem::create_directories(options_.work_dir);
  buffer_.reserve(options_.sort_buffer_edges);
  profiles_.resize(nodes_);
  load_or_init_manifest();
}

OutOfCoreSnapshotBuilder::~OutOfCoreSnapshotBuilder() = default;

void OutOfCoreSnapshotBuilder::load_or_init_manifest() {
  const auto manifest = options_.work_dir / "MANIFEST";
  std::ifstream in(manifest);
  std::string tag;
  std::uint32_t version = 0;
  std::uint64_t nodes = 0;
  std::uint64_t durable = 0;
  std::uint64_t runs = 0;
  if (in && (in >> tag >> version >> nodes >> durable >> runs) &&
      tag == "gplus-oocbuild" && version == 1 && nodes == nodes_) {
    // Resume: the runs listed are durable; everything after them must be
    // re-streamed by the caller and will be fast-forwarded.
    resumed_edges_ = durable;
    ingested_ = 0;
    run_count_ = runs;
    return;
  }
  // Fresh build (or a stale/incompatible manifest): clear leftovers so an
  // old run can never leak into this build's merge.
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.work_dir, ec)) {
    std::filesystem::remove(entry.path(), ec);
  }
  resumed_edges_ = 0;
  run_count_ = 0;
}

void OutOfCoreSnapshotBuilder::write_manifest() const {
  const auto manifest = options_.work_dir / "MANIFEST";
  const auto tmp = options_.work_dir / "MANIFEST.tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << "gplus-oocbuild 1\n"
        << nodes_ << '\n'
        << (resumed_edges_ + ingested_) << '\n'
        << run_count_ << '\n';
    if (!out) fail("cannot write manifest");
  }
  std::filesystem::rename(tmp, manifest);
}

void OutOfCoreSnapshotBuilder::stage(std::string_view name) {
  if (options_.checkpoint && !options_.checkpoint(name)) {
    fail("aborted at stage " + std::string(name));
  }
}

void OutOfCoreSnapshotBuilder::flush_run() {
  if (buffer_.empty()) return;
  write_run(options_.work_dir, run_count_, buffer_);
  // Every add_edge seen so far is now durable; record it before telling
  // the checkpoint hook (a simulated crash right after the flush must
  // still find the manifest current).
  write_manifest();
  stage("run_flush");
}

void OutOfCoreSnapshotBuilder::add_edge(graph::NodeId src, graph::NodeId dst) {
  if (finished_) fail("add_edge after finish");
  if (src >= nodes_ || dst >= nodes_) fail("edge endpoint out of range");
  // Fast-forward through edges a previous interrupted build already made
  // durable — the caller replays its stream from the top.
  if (skipped_ < resumed_edges_) {
    ++skipped_;
    return;
  }
  buffer_.push_back((static_cast<std::uint64_t>(src) << 32) | dst);
  ++ingested_;
  if (buffer_.size() >= options_.sort_buffer_edges) flush_run();
}

void OutOfCoreSnapshotBuilder::set_profile(graph::NodeId u,
                                           const synth::Profile& profile) {
  if (u >= nodes_) fail("profile node out of range");
  profiles_[u] = pack_profile(profile);
}

OutOfCoreStats OutOfCoreSnapshotBuilder::finish(
    const std::filesystem::path& path) {
  if (finished_) fail("finish called twice");
  const auto& dir = options_.work_dir;
  flush_run();

  // Merge the runs into the forward edge file, counting degrees.
  std::vector<std::uint32_t> out_deg(nodes_, 0);
  std::vector<std::uint32_t> in_deg(nodes_, 0);
  const auto edges_src = dir / "edges_src.u64";
  const std::uint64_t m =
      merge_sorted_runs(dir, run_count_, edges_src, [&](std::uint64_t v) {
        const auto src = static_cast<std::uint32_t>(v >> 32);
        const auto dst = static_cast<std::uint32_t>(v & 0xFFFFFFFFULL);
        if (src == dst) return false;  // GraphBuilder drops self-loops
        ++out_deg[src];
        ++in_deg[dst];
        return true;
      });
  stage("merged_forward");

  // Reverse edge file: rotate each tuple to (dst<<32)|src, external-sort.
  // Doubles as the reversed edge *set* for the reciprocity intersection.
  const auto edges_dst = dir / "edges_dst.u64";
  {
    std::uint64_t rev_runs = 0;
    const auto rev_dir = dir / "rev";
    std::filesystem::create_directories(rev_dir);
    std::vector<std::uint64_t> chunk;
    chunk.reserve(options_.sort_buffer_edges);
    U64Reader forward(edges_src);
    std::uint64_t v = 0;
    while (forward.next(v)) {
      chunk.push_back((v << 32) | (v >> 32));
      if (chunk.size() >= options_.sort_buffer_edges) {
        write_run(rev_dir, rev_runs, chunk);
      }
    }
    if (!chunk.empty()) write_run(rev_dir, rev_runs, chunk);
    merge_sorted_runs(rev_dir, rev_runs, edges_dst,
                      [](std::uint64_t) { return true; });
    std::filesystem::remove_all(rev_dir);
  }
  stage("merged_reverse");

  const std::vector<graph::NodeId> inv =
      detail::degree_rank_order(nodes_, [&](graph::NodeId u) {
        return std::uint64_t{out_deg[u]} + in_deg[u];
      });
  std::vector<std::uint32_t> perm(nodes_);
  for (std::uint32_t r = 0; r < nodes_; ++r) perm[inv[r]] = r;

  auto prefix_of = [&](const std::vector<std::uint32_t>& deg) {
    std::vector<std::uint64_t> prefix(nodes_ + 1, 0);
    for (std::size_t u = 0; u < nodes_; ++u) {
      prefix[u + 1] = prefix[u] + deg[u];
    }
    return prefix;
  };

  const EncodedStream out_enc = encode_rows(edges_src, prefix_of(out_deg), inv,
                                            nodes_, dir / "out_stream");
  const EncodedStream in_enc = encode_rows(edges_dst, prefix_of(in_deg), inv,
                                           nodes_, dir / "in_stream");
  out_deg.clear();
  out_deg.shrink_to_fit();
  in_deg.clear();
  in_deg.shrink_to_fit();
  stage("encoded");

  // Reciprocal out-degrees: (a,b) has its reverse edge exactly when the
  // packed tuple (a<<32)|b appears in the reversed set — a two-pointer
  // intersection of two sorted streams, one sequential pass each.
  std::vector<std::uint32_t> recip(nodes_, 0);
  {
    U64Reader fwd(edges_src);
    U64Reader rev(edges_dst);
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    bool have_a = fwd.next(a);
    bool have_b = rev.next(b);
    while (have_a && have_b) {
      if (a == b) {
        ++recip[static_cast<std::uint32_t>(a >> 32)];
        have_a = fwd.next(a);
        have_b = rev.next(b);
      } else if (a < b) {
        have_a = fwd.next(a);
      } else {
        have_b = rev.next(b);
      }
    }
  }

  detail::CountryIndex countries;
  if (options_.country_index) {
    countries = detail::build_country_index(nodes_, [&](graph::NodeId u) {
      const PackedProfile& p = profiles_[u];
      return p.located() ? std::size_t{p.country} : SIZE_MAX;
    });
  }
  const detail::SnapshotLayout layout = detail::SnapshotLayout::place(
      kSnapshotVersion3, nodes_, m, {out_enc.data_bytes, in_enc.data_bytes},
      options_.country_index ? &countries : nullptr);

  const auto tmp_path = path.string() + ".tmp";
  SectionedWriter out(tmp_path);
  {
    std::array<std::byte, kHeaderBytes> header{};
    layout.store_header(header.data());
    out.write(header.data(), kHeaderBytes);
  }

  std::array<std::uint64_t, kSnapshotSectionCount> digests{};
  auto write_adjacency = [&](const EncodedStream& enc) {
    out.begin_section();
    std::array<std::byte, 16> sub{};
    store_u64(sub.data(), enc.data_bytes);
    out.write(sub.data(), 16);
    out.write(enc.index.base().data(), enc.index.base().size() * 8);
    out.write(enc.index.rel().data(), enc.index.rel().size() * 4);
    out.pad_to8();
    out.append_file(enc.path);
    out.pad_to8();
    return out.end_section();
  };
  digests[0] = write_adjacency(out_enc);
  digests[1] = write_adjacency(in_enc);
  auto write_u32_section = [&](const std::vector<std::uint32_t>& data) {
    out.begin_section();
    out.write(data.data(), data.size() * 4);
    out.pad_to8();
    return out.end_section();
  };
  digests[2] = write_u32_section(perm);
  digests[3] = write_u32_section(inv);
  digests[4] = write_u32_section(recip);
  out.begin_section();
  out.write(profiles_.data(), profiles_.size() * sizeof(PackedProfile));
  out.pad_to8();
  digests[5] = out.end_section();
  if (options_.country_index) {
    out.begin_section();
    out.write(countries.offsets.data(), countries.offsets.size() * 8);
    digests[6] = out.end_section();
    out.begin_section();
    out.write(countries.nodes.data(), countries.nodes.size() * 4);
    out.pad_to8();
    digests[7] = out.end_section();
  }
  {
    std::array<std::byte, kSnapshotDigestBytes> table{};
    detail::store_digest_table(table.data(), digests);
    out.write(table.data(), kSnapshotDigestBytes);
  }
  if (out.written() != layout.total) {
    fail("assembled size mismatch (wrote " + std::to_string(out.written()) +
         ", laid out " + std::to_string(layout.total) + ")");
  }
  out.close();
  stage("assemble");
  std::filesystem::rename(tmp_path, path);

  // Scratch is no longer needed; a future build in this work_dir starts
  // fresh rather than resuming into a completed snapshot.
  std::error_code ec;
  std::filesystem::remove(dir / "MANIFEST", ec);
  for (std::uint64_t i = 0; i < run_count_; ++i) {
    std::filesystem::remove(run_path(dir, i), ec);
  }
  std::filesystem::remove(edges_src, ec);
  std::filesystem::remove(edges_dst, ec);
  std::filesystem::remove(out_enc.path, ec);
  std::filesystem::remove(in_enc.path, ec);
  finished_ = true;

  OutOfCoreStats stats;
  stats.edge_count = m;
  stats.total_bytes = layout.total;
  stats.run_count = run_count_;
  stats.resumed_edges = resumed_edges_;
  return stats;
}

// ---------------------------------------------------------------------------
// Shard splitter (see snapshot_build.h for the E_s contract).
// ---------------------------------------------------------------------------

std::string_view sharding_policy_name(ShardingPolicy policy) noexcept {
  switch (policy) {
    case ShardingPolicy::kRankStripe: return "rank-stripe";
    case ShardingPolicy::kRankRange: return "rank-range";
  }
  return "?";
}

namespace {

constexpr char kRoutingMagic[8] = {'G', 'P', 'R', 'O', 'U', 'T', 'E', '1'};

/// Owners over the degree-rank order, recomputed here from the view so
/// sharding is format-version independent.
std::vector<std::uint8_t> assign_owners(const SnapshotView& full,
                                        const ShardingOptions& options) {
  const std::size_t n = full.node_count();
  const std::size_t k = options.shard_count;
  std::vector<std::uint64_t> deg(n);
  core::parallel_for(n, 4096, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      const auto id = static_cast<graph::NodeId>(u);
      deg[u] = full.out_degree(id) + full.in_degree(id);
    }
  });
  const std::vector<graph::NodeId> order =
      detail::degree_rank_order(n, [&](graph::NodeId u) { return deg[u]; });
  std::vector<std::uint8_t> owner(n, 0);
  if (options.policy == ShardingPolicy::kRankStripe) {
    for (std::size_t r = 0; r < n; ++r) {
      owner[order[r]] = static_cast<std::uint8_t>(r % k);
    }
    return owner;
  }
  // kRankRange: contiguous rank ranges cut so each carries ~1/K of the
  // total degree mass (+1 per node keeps zero-degree tails spreading).
  std::uint64_t total_mass = 0;
  for (std::size_t u = 0; u < n; ++u) total_mass += deg[u] + 1;
  std::uint64_t seen = 0;
  std::size_t s = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const graph::NodeId u = order[r];
    seen += deg[u] + 1;
    owner[u] = static_cast<std::uint8_t>(s);
    while (s + 1 < k && seen * k >= total_mass * (s + 1)) ++s;
  }
  return owner;
}

/// Flat-writer rows of shard `mine`: the edge set E_s = {(a,b) : owner(a)
/// == s or owner(b) == s} over the global id space. Source scans are
/// ascending and filtering preserves that, so shard rows keep the
/// sorted-adjacency invariant the engine depends on.
struct ShardRows {
  const SnapshotView& full;
  const std::vector<std::uint8_t>& owner;
  std::uint8_t mine;

  bool owned(graph::NodeId u) const { return owner[u] == mine; }
  /// Entries of `scan` that this shard owns.
  std::uint64_t kept(NeighborScan scan) const {
    std::uint64_t count = 0;
    graph::NodeId v = 0;
    while (scan.next(v)) count += owned(v) ? 1 : 0;
    return count;
  }
  void copy_kept(graph::NodeId u, NeighborScan scan, graph::NodeId* dst) const {
    const bool all = owned(u);
    graph::NodeId v = 0;
    while (scan.next(v)) {
      if (all || owned(v)) *dst++ = v;
    }
  }

  std::size_t node_count() const { return full.node_count(); }
  std::uint64_t out_degree(graph::NodeId u) const {
    return owned(u) ? full.out_degree(u) : kept(full.out_scan(u));
  }
  std::uint64_t in_degree(graph::NodeId u) const {
    return owned(u) ? full.in_degree(u) : kept(full.in_scan(u));
  }
  void write_out(graph::NodeId u, graph::NodeId* dst) const {
    copy_kept(u, full.out_scan(u), dst);
  }
  void write_in(graph::NodeId u, graph::NodeId* dst) const {
    copy_kept(u, full.in_scan(u), dst);
  }
  /// Reciprocity against the FULL graph: (a,b) in E_s and (b,a) in E
  /// implies (b,a) in E_s too (membership is symmetric), so owned rows
  /// report globally-correct reciprocity.
  bool has_edge(graph::NodeId a, graph::NodeId b) const {
    return full.has_edge(a, b);
  }
  /// Non-owned profile rows stay zero: they are never served.
  void write_profile(graph::NodeId u, PackedProfile& slot) const {
    if (owned(u)) slot = full.profile(u);
  }
};

/// Builds shard `s` as a self-contained v2 snapshot over the global id
/// space, holding exactly E_s. Shards never carry the country index.
SnapshotBuffer build_shard_buffer(const SnapshotView& full,
                                  const std::vector<std::uint8_t>& owner,
                                  std::size_t s) {
  const ShardRows rows{full, owner, static_cast<std::uint8_t>(s)};
  // |E_s| = arcs out of owned nodes + arcs into them - arcs between two
  // owned nodes (counted by both terms). The flat writer checks it
  // against the per-row degrees.
  const std::uint64_t edges = core::parallel_reduce(
      full.node_count(), 1024, std::uint64_t{0},
      [&](std::size_t begin, std::size_t end, std::uint64_t& acc) {
        for (std::size_t u = begin; u < end; ++u) {
          const auto id = static_cast<graph::NodeId>(u);
          if (!rows.owned(id)) continue;
          acc += full.out_degree(id) + full.in_degree(id) -
                 rows.kept(full.out_scan(id));
        }
      },
      [](std::uint64_t& into, std::uint64_t from) { into += from; });
  return detail::write_flat_snapshot(rows, edges, nullptr);
}

}  // namespace

ShardedSnapshot split_snapshot(const SnapshotView& full,
                               const ShardingOptions& options) {
  const std::size_t n = full.node_count();
  if (options.shard_count == 0) fail("shard split: shard_count 0");
  if (options.shard_count > 256) fail("shard split: more than 256 shards");
  if (options.shard_count > n) {
    fail("shard split: more shards than nodes");
  }
  ShardedSnapshot result;
  result.routing.shard_count = static_cast<std::uint32_t>(options.shard_count);
  result.routing.policy = options.policy;
  result.routing.owner = assign_owners(full, options);
  result.shards.reserve(options.shard_count);
  for (std::size_t s = 0; s < options.shard_count; ++s) {
    result.shards.push_back(build_shard_buffer(full, result.routing.owner, s));
  }
  return result;
}

void save_routing_table(const RoutingTable& table,
                        const std::filesystem::path& path) {
  if (table.shard_count == 0 || table.shard_count > 256) {
    fail("routing table: bad shard_count");
  }
  const std::size_t n = table.owner.size();
  // Magic 8B | shard_count u32 | policy u8 | pad 3B | node_count u64 |
  // owner bytes padded to 8 | FNV-1a u64 over everything preceding.
  const std::size_t body = 8 + 4 + 4 + 8 + pad8(n);
  std::vector<std::byte> bytes(body + 8, std::byte{0});
  std::memcpy(bytes.data(), kRoutingMagic, 8);
  store_u32(bytes.data() + 8, table.shard_count);
  bytes[12] = static_cast<std::byte>(table.policy);
  store_u64(bytes.data() + 16, n);
  for (std::size_t u = 0; u < n; ++u) {
    bytes[24 + u] = static_cast<std::byte>(table.owner[u]);
  }
  store_u64(bytes.data() + body, fnv1a64(bytes.data(), body));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail("routing table: cannot open " + path.string());
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) fail("routing table: short write to " + path.string());
}

RoutingTable load_routing_table(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("routing table: cannot open " + path.string());
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto* bytes = reinterpret_cast<const std::byte*>(raw.data());
  if (raw.size() < 32) fail("routing table: truncated");
  if (std::memcmp(raw.data(), kRoutingMagic, 8) != 0) {
    fail("routing table: bad magic");
  }
  RoutingTable table;
  table.shard_count = load_u32(bytes + 8);
  const auto policy = static_cast<std::uint8_t>(bytes[12]);
  const std::uint64_t n = load_u64(bytes + 16);
  const std::size_t body = 8 + 4 + 4 + 8 + pad8(n);
  if (raw.size() != body + 8) fail("routing table: size mismatch");
  if (load_u64(bytes + body) != fnv1a64(bytes, body)) {
    fail("routing table: checksum mismatch");
  }
  if (table.shard_count == 0 || table.shard_count > 256) {
    fail("routing table: bad shard_count");
  }
  if (policy > static_cast<std::uint8_t>(ShardingPolicy::kRankRange)) {
    fail("routing table: unknown policy");
  }
  table.policy = static_cast<ShardingPolicy>(policy);
  table.owner.resize(n);
  for (std::size_t u = 0; u < n; ++u) {
    const auto o = static_cast<std::uint8_t>(bytes[24 + u]);
    if (o >= table.shard_count) fail("routing table: owner out of range");
    table.owner[u] = o;
  }
  return table;
}

}  // namespace gplus::serve
