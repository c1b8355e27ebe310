#include "core/export.h"

#include <fstream>

namespace gplus::core {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("export: " + what);
}

// Visible-country helper honoring the public-view switch.
bool country_visible(const synth::Profile& p, const ExportOptions& options) {
  if (p.country == geo::kNoCountry) return false;
  return !options.public_view || p.is_located();
}

bool occupation_visible(const synth::Profile& p, const ExportOptions& options) {
  return !options.public_view || p.shared.test(synth::Attribute::kOccupation);
}

}  // namespace

void write_graphml(const Dataset& dataset, std::ostream& out,
                   const ExportOptions& options) {
  out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      << "<graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">\n";
  if (options.include_country) {
    out << "  <key id=\"country\" for=\"node\" attr.name=\"country\""
           " attr.type=\"string\"/>\n";
  }
  if (options.include_occupation) {
    out << "  <key id=\"occupation\" for=\"node\" attr.name=\"occupation\""
           " attr.type=\"string\"/>\n";
  }
  if (options.include_celebrity) {
    out << "  <key id=\"celebrity\" for=\"node\" attr.name=\"celebrity\""
           " attr.type=\"boolean\"/>\n";
  }
  if (options.include_coordinates) {
    out << "  <key id=\"lat\" for=\"node\" attr.name=\"lat\""
           " attr.type=\"double\"/>\n"
        << "  <key id=\"lon\" for=\"node\" attr.name=\"lon\""
           " attr.type=\"double\"/>\n";
  }
  out << "  <graph id=\"gplus\" edgedefault=\"directed\">\n";

  const graph::DiGraph& g = dataset.graph();
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    const auto& p = dataset.profiles[u];
    out << "    <node id=\"n" << u << "\"";
    const bool has_data =
        (options.include_country && country_visible(p, options)) ||
        (options.include_occupation && occupation_visible(p, options)) ||
        options.include_celebrity ||
        (options.include_coordinates && country_visible(p, options));
    if (!has_data) {
      out << "/>\n";
      continue;
    }
    out << ">\n";
    if (options.include_country && country_visible(p, options)) {
      out << "      <data key=\"country\">" << geo::country(p.country).code
          << "</data>\n";
    }
    if (options.include_occupation && occupation_visible(p, options)) {
      out << "      <data key=\"occupation\">"
          << synth::occupation_code(p.occupation) << "</data>\n";
    }
    if (options.include_celebrity) {
      out << "      <data key=\"celebrity\">"
          << (p.celebrity ? "true" : "false") << "</data>\n";
    }
    if (options.include_coordinates && country_visible(p, options)) {
      out << "      <data key=\"lat\">" << p.home.lat << "</data>\n"
          << "      <data key=\"lon\">" << p.home.lon << "</data>\n";
    }
    out << "    </node>\n";
  }
  std::uint64_t edge_id = 0;
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    for (graph::NodeId v : g.out_neighbors(u)) {
      out << "    <edge id=\"e" << edge_id++ << "\" source=\"n" << u
          << "\" target=\"n" << v << "\"/>\n";
    }
  }
  out << "  </graph>\n</graphml>\n";
  if (!out) fail("write failed");
}

void write_nodes_csv(const Dataset& dataset, std::ostream& out,
                     const ExportOptions& options) {
  out << "id";
  if (options.include_country) out << ",country";
  if (options.include_occupation) out << ",occupation";
  if (options.include_celebrity) out << ",celebrity";
  if (options.include_coordinates) out << ",lat,lon";
  out << "\n";
  for (graph::NodeId u = 0; u < dataset.user_count(); ++u) {
    const auto& p = dataset.profiles[u];
    out << u;
    if (options.include_country) {
      out << ',';
      if (country_visible(p, options)) out << geo::country(p.country).code;
    }
    if (options.include_occupation) {
      out << ',';
      if (occupation_visible(p, options)) {
        out << synth::occupation_code(p.occupation);
      }
    }
    if (options.include_celebrity) out << ',' << (p.celebrity ? 1 : 0);
    if (options.include_coordinates) {
      out << ',';
      if (country_visible(p, options)) out << p.home.lat;
      out << ',';
      if (country_visible(p, options)) out << p.home.lon;
    }
    out << "\n";
  }
  if (!out) fail("write failed");
}

void write_edges_csv(const Dataset& dataset, std::ostream& out) {
  out << "source,target\n";
  const graph::DiGraph& g = dataset.graph();
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    for (graph::NodeId v : g.out_neighbors(u)) {
      out << u << ',' << v << "\n";
    }
  }
  if (!out) fail("write failed");
}

void save_graphml(const Dataset& dataset, const std::filesystem::path& path,
                  const ExportOptions& options) {
  std::ofstream out(path);
  if (!out) fail("cannot open for writing: " + path.string());
  write_graphml(dataset, out, options);
}

void save_csv(const Dataset& dataset, const std::filesystem::path& nodes_path,
              const std::filesystem::path& edges_path,
              const ExportOptions& options) {
  std::ofstream nodes(nodes_path);
  if (!nodes) fail("cannot open for writing: " + nodes_path.string());
  write_nodes_csv(dataset, nodes, options);
  std::ofstream edges(edges_path);
  if (!edges) fail("cannot open for writing: " + edges_path.string());
  write_edges_csv(dataset, edges);
}

}  // namespace gplus::core
