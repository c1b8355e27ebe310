#include "crawler/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace gplus::crawler {

namespace {

constexpr char kMagic[8] = {'G', 'P', 'L', 'U', 'S', 'C', 'K', '2'};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

void write_u64(std::ostream& out, std::uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(buf), 8);
}

std::uint64_t read_u64(std::istream& in) {
  unsigned char buf[8];
  in.read(reinterpret_cast<char*>(buf), 8);
  if (!in) fail("truncated stream");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  return v;
}

void write_f64(std::ostream& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  write_u64(out, bits);
}

double read_f64(std::istream& in) {
  const std::uint64_t bits = read_u64(in);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void write_flags(std::ostream& out, const std::vector<std::uint8_t>& flags) {
  write_u64(out, flags.size());
  if (!flags.empty()) {
    out.write(reinterpret_cast<const char*>(flags.data()),
              static_cast<std::streamsize>(flags.size()));
  }
}

std::vector<std::uint8_t> read_flags(std::istream& in, std::uint64_t expected) {
  const std::uint64_t n = read_u64(in);
  if (n != expected) fail("flag vector length mismatch");
  std::vector<std::uint8_t> flags(n);
  if (n > 0) {
    in.read(reinterpret_cast<char*>(flags.data()),
            static_cast<std::streamsize>(n));
    if (!in) fail("truncated stream");
  }
  return flags;
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

    write_u64(out, checkpoint.original_id.size());
    for (graph::NodeId id : checkpoint.original_id) write_u64(out, id);
    write_flags(out, checkpoint.crawled);
    write_flags(out, checkpoint.degraded);
    write_u64(out, checkpoint.queue_head);

    write_u64(out, checkpoint.edges.size());
    for (const graph::Edge& e : checkpoint.edges) {
      write_u64(out, (std::uint64_t{e.from} << 32) | e.to);
    }

    write_u64(out, checkpoint.profiles_crawled);
    write_u64(out, checkpoint.edges_collected);
    write_u64(out, checkpoint.requests);
    write_u64(out, checkpoint.hidden_list_users);
    write_u64(out, checkpoint.capped_users);

    for (const auto& field : kRetryCounters) {
      write_u64(out, checkpoint.retry.*field.member);
    }
    write_f64(out, checkpoint.elapsed_seconds);

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
    // Version 1 stored the backoff total as a double of milliseconds.
    fail(in && std::memcmp(magic, "GPLUSCK1", 8) == 0
             ? "unsupported format GPLUSCK1 in " + path +
                   " (reader knows GPLUSCK2)"
             : "bad magic in " + path);
  }
  // A count read from the file sizes an allocation only once the bytes
  // left in the file can hold that many 8-byte records.
  const auto read_count = [&](const char* what) {
    const std::uint64_t count = read_u64(in);
    const auto left = size - static_cast<std::uint64_t>(in.tellg());
    if (count > left / 8) fail(std::string(what) + " count exceeds file size");
    return count;
  };

  CrawlCheckpoint cp;
  const std::uint64_t nodes = read_count("node");
  cp.original_id.reserve(nodes);
  for (std::uint64_t i = 0; i < nodes; ++i) {
    cp.original_id.push_back(static_cast<graph::NodeId>(read_u64(in)));
  }
  cp.crawled = read_flags(in, nodes);
  cp.degraded = read_flags(in, nodes);
  cp.queue_head = read_u64(in);
  if (cp.queue_head > nodes) fail("queue head beyond frontier");

  const std::uint64_t edges = read_count("edge");
  cp.edges.reserve(edges);
  for (std::uint64_t i = 0; i < edges; ++i) {
    const std::uint64_t packed = read_u64(in);
    cp.edges.push_back({static_cast<graph::NodeId>(packed >> 32),
                        static_cast<graph::NodeId>(packed & 0xFFFFFFFFULL)});
  }

  cp.profiles_crawled = read_u64(in);
  cp.edges_collected = read_u64(in);
  cp.requests = read_u64(in);
  cp.hidden_list_users = read_u64(in);
  cp.capped_users = read_u64(in);

  for (const auto& field : kRetryCounters) {
    cp.retry.*field.member = read_u64(in);
  }
  cp.elapsed_seconds = read_f64(in);
  return cp;
}

}  // namespace gplus::crawler
