#include "crawler/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace gplus::crawler {

namespace {

constexpr char kMagic[8] = {'G', 'P', 'L', 'U', 'S', 'C', 'K', '3'};
// Retired versions, named when refused: GPLUSCK1 stored the backoff total
// as a double of milliseconds, GPLUSCK2 carried no checksum.
constexpr const char* kRetired[] = {"GPLUSCK1", "GPLUSCK2"};
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

void fnv1a(std::uint64_t& hash, const char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= kFnvPrime;
  }
}

// Writes the body little-endian, hashing every byte it writes.
class BodyWriter {
 public:
  explicit BodyWriter(std::ostream& out) : out_(out) {}

  void bytes(const void* data, std::size_t n) {
    fnv1a(hash_, static_cast<const char*>(data), n);
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
  }
  void u64(std::uint64_t v) {
    unsigned char buf[8];
    for (int i = 0; i < 8; ++i) {
      buf[i] = static_cast<unsigned char>(v >> (8 * i));
    }
    bytes(buf, 8);
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void flags(const std::vector<std::uint8_t>& flags) {
    u64(flags.size());
    bytes(flags.data(), flags.size());
  }
  std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::ostream& out_;
  std::uint64_t hash_ = kFnvOffset;
};

// Reads `size` bytes of the file, never past them.
class BodyReader {
 public:
  BodyReader(std::istream& in, std::uint64_t size) : in_(in), left_(size) {}

  void bytes(void* data, std::uint64_t n) {
    if (n > left_) fail("truncated stream");
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (!in_) fail("truncated stream");
    left_ -= n;
  }
  std::uint64_t u64() {
    unsigned char buf[8];
    bytes(buf, 8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
    }
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  /// A count read from the file sizes an allocation only once the bytes
  /// left can hold that many 8-byte records.
  std::uint64_t count(const char* what) {
    const std::uint64_t count = u64();
    if (count > left_ / 8) fail(std::string(what) + " count exceeds file size");
    return count;
  }
  std::vector<std::uint8_t> flags(std::uint64_t expected) {
    if (u64() != expected) fail("flag vector length mismatch");
    std::vector<std::uint8_t> flags(expected);
    bytes(flags.data(), expected);
    return flags;
  }
  std::uint64_t left() const noexcept { return left_; }

 private:
  std::istream& in_;
  std::uint64_t left_;
};

// FNV-1a of the next `n` bytes of `in`, read in bounded chunks.
std::uint64_t hash_stream(std::istream& in, std::uint64_t n) {
  std::uint64_t hash = kFnvOffset;
  std::vector<char> buf(std::size_t{1} << 16);
  while (n > 0) {
    const auto chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, buf.size()));
    in.read(buf.data(), static_cast<std::streamsize>(chunk));
    if (!in) fail("truncated stream");
    fnv1a(hash, buf.data(), chunk);
    n -= chunk;
  }
  return hash;
}

}  // namespace

void save_checkpoint(const CrawlCheckpoint& checkpoint,
                     const std::string& path) {
  if (checkpoint.queue_head > checkpoint.original_id.size()) {
    fail("queue head beyond frontier");
  }
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) fail("cannot open " + temp + " for writing");
    out.write(kMagic, sizeof kMagic);

    BodyWriter body(out);
    body.u64(checkpoint.original_id.size());
    for (graph::NodeId id : checkpoint.original_id) body.u64(id);
    body.flags(checkpoint.crawled);
    body.flags(checkpoint.degraded);
    body.u64(checkpoint.queue_head);

    body.u64(checkpoint.edges.size());
    for (const graph::Edge& e : checkpoint.edges) {
      body.u64((std::uint64_t{e.from} << 32) | e.to);
    }

    body.u64(checkpoint.profiles_crawled);
    body.u64(checkpoint.edges_collected);
    body.u64(checkpoint.requests);
    body.u64(checkpoint.hidden_list_users);
    body.u64(checkpoint.capped_users);

    for (const auto& field : kRetryCounters) {
      body.u64(checkpoint.retry.*field.member);
    }
    body.f64(checkpoint.elapsed_seconds);

    const std::uint64_t checksum = body.hash();
    BodyWriter(out).u64(checksum);
    out.flush();
    if (!out) fail("write to " + temp + " failed");
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) fail("atomic rename to " + path + " failed: " + ec.message());
}

std::optional<CrawlCheckpoint> load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (!std::filesystem::exists(path)) return std::nullopt;
    fail("cannot open " + path + " for reading");
  }
  const std::uint64_t size = std::filesystem::file_size(path);
  char magic[8];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    for (const char* retired : kRetired) {
      if (in && std::memcmp(magic, retired, sizeof magic) == 0) {
        fail("unsupported format " + std::string(retired) + " in " + path +
             " (reader knows GPLUSCK3)");
      }
    }
    fail("bad magic in " + path);
  }
  // No field is trusted before the trailing checksum matches the body.
  if (size < sizeof kMagic + 8) fail("truncated stream");
  const std::uint64_t body_size = size - sizeof kMagic - 8;
  const std::uint64_t hash = hash_stream(in, body_size);
  if (BodyReader(in, 8).u64() != hash) fail("checksum mismatch in " + path);
  in.seekg(sizeof kMagic);
  BodyReader body(in, body_size);

  CrawlCheckpoint cp;
  const std::uint64_t nodes = body.count("node");
  cp.original_id.reserve(nodes);
  for (std::uint64_t i = 0; i < nodes; ++i) {
    cp.original_id.push_back(static_cast<graph::NodeId>(body.u64()));
  }
  cp.crawled = body.flags(nodes);
  cp.degraded = body.flags(nodes);
  cp.queue_head = body.u64();
  if (cp.queue_head > nodes) fail("queue head beyond frontier");

  const std::uint64_t edges = body.count("edge");
  cp.edges.reserve(edges);
  for (std::uint64_t i = 0; i < edges; ++i) {
    const std::uint64_t packed = body.u64();
    cp.edges.push_back({static_cast<graph::NodeId>(packed >> 32),
                        static_cast<graph::NodeId>(packed & 0xFFFFFFFFULL)});
  }

  cp.profiles_crawled = body.u64();
  cp.edges_collected = body.u64();
  cp.requests = body.u64();
  cp.hidden_list_users = body.u64();
  cp.capped_users = body.u64();

  for (const auto& field : kRetryCounters) {
    cp.retry.*field.member = body.u64();
  }
  cp.elapsed_seconds = body.f64();
  if (body.left() != 0) fail("trailing bytes in " + path);
  return cp;
}

}  // namespace gplus::crawler
