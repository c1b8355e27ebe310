#include "graph/edgelist_io.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/builder.h"

namespace gplus::graph {

namespace {

[[noreturn]] void fail_io(const std::string& what) {
  throw std::runtime_error("edgelist_io: " + what);
}

void write_u64(std::ostream& out, std::uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(buf), 8);
}

std::uint64_t read_u64(std::istream& in) {
  unsigned char buf[8];
  in.read(reinterpret_cast<char*>(buf), 8);
  if (!in) fail_io("truncated binary edge list");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  return v;
}

void write_u32(std::ostream& out, std::uint32_t v) {
  unsigned char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(buf), 4);
}

std::uint32_t read_u32(std::istream& in) {
  unsigned char buf[4];
  in.read(reinterpret_cast<char*>(buf), 4);
  if (!in) fail_io("truncated binary edge list");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(buf[i]) << (8 * i);
  return v;
}

}  // namespace

void write_edgelist_text(const DiGraph& g, std::ostream& out) {
  out << "# gplusgraph edge list\n";
  out << "# nodes " << g.node_count() << " edges " << g.edge_count() << "\n";
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v : g.out_neighbors(u)) out << u << ' ' << v << '\n';
  }
  if (!out) fail_io("write failed");
}

DiGraph read_edgelist_text(std::istream& in) {
  GraphBuilder builder;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t from = 0, to = 0;
    if (!(fields >> from >> to)) {
      fail_io("malformed line " + std::to_string(line_no) + ": '" + line + "'");
    }
    std::string trailing;
    if (fields >> trailing) {
      fail_io("trailing tokens on line " + std::to_string(line_no));
    }
    if (from > UINT32_MAX || to > UINT32_MAX) {
      fail_io("node id overflows 32 bits on line " + std::to_string(line_no));
    }
    builder.add_edge(static_cast<NodeId>(from), static_cast<NodeId>(to));
  }
  return builder.build(/*keep_self_loops=*/true);
}

void write_edgelist_binary(const DiGraph& g, std::ostream& out) {
  write_u64(out, g.node_count());
  write_u64(out, g.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v : g.out_neighbors(u)) {
      write_u32(out, u);
      write_u32(out, v);
    }
  }
  if (!out) fail_io("write failed");
}

DiGraph read_edgelist_binary(std::istream& in) {
  const std::uint64_t nodes = read_u64(in);
  const std::uint64_t edge_count = read_u64(in);
  if (nodes > UINT32_MAX) fail_io("node count overflows 32 bits");
  std::vector<Edge> edges;
  edges.reserve(edge_count);
  for (std::uint64_t i = 0; i < edge_count; ++i) {
    const NodeId from = read_u32(in);
    const NodeId to = read_u32(in);
    if (from >= nodes || to >= nodes) fail_io("edge endpoint out of range");
    edges.push_back({from, to});
  }
  return DiGraph::from_edges(static_cast<NodeId>(nodes), edges,
                             /*keep_self_loops=*/true);
}

void save_text(const DiGraph& g, const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) fail_io("cannot open for writing: " + path.string());
  write_edgelist_text(g, out);
}

DiGraph load_text(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) fail_io("cannot open for reading: " + path.string());
  return read_edgelist_text(in);
}

void save_binary(const DiGraph& g, const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail_io("cannot open for writing: " + path.string());
  write_edgelist_binary(g, out);
}

DiGraph load_binary(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail_io("cannot open for reading: " + path.string());
  return read_edgelist_binary(in);
}

}  // namespace gplus::graph
