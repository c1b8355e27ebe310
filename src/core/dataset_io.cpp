#include "core/dataset_io.h"

#include <cstring>
#include <fstream>

#include "graph/edgelist_io.h"

namespace gplus::core {

namespace {

constexpr char kMagic[8] = {'G', 'P', 'L', 'U', 'S', 'D', 'S', '1'};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("dataset_io: " + what);
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
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  }
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

// One fixed-width profile record.
void write_profile(std::ostream& out, const synth::Profile& p) {
  write_u64(out, static_cast<std::uint64_t>(p.gender));
  write_u64(out, static_cast<std::uint64_t>(p.relationship));
  write_u64(out, static_cast<std::uint64_t>(p.occupation));
  write_u64(out, p.country);
  write_f64(out, p.home.lat);
  write_f64(out, p.home.lon);
  write_f64(out, p.openness);
  write_u64(out, p.celebrity ? 1 : 0);
  write_u64(out, p.shared.bits());
}

synth::Profile read_profile(std::istream& in) {
  synth::Profile p;
  const auto gender = read_u64(in);
  const auto relationship = read_u64(in);
  const auto occupation = read_u64(in);
  const auto country = read_u64(in);
  if (gender >= synth::kGenderCount) fail("gender out of range");
  if (relationship >= synth::kRelationshipCount) {
    fail("relationship out of range");
  }
  if (occupation >= synth::kOccupationCount) fail("occupation out of range");
  if (country != geo::kNoCountry && country >= geo::country_count()) {
    fail("country out of range");
  }
  p.gender = static_cast<synth::Gender>(gender);
  p.relationship = static_cast<synth::Relationship>(relationship);
  p.occupation = static_cast<synth::Occupation>(occupation);
  p.country = static_cast<geo::CountryId>(country);
  p.home.lat = read_f64(in);
  p.home.lon = read_f64(in);
  p.openness = static_cast<float>(read_f64(in));
  p.celebrity = read_u64(in) != 0;
  const auto bits = read_u64(in);
  if (bits >> synth::kAttributeCount) fail("attribute mask out of range");
  for (auto a : synth::all_attributes()) {
    if (bits & synth::AttributeMask::bit(a)) p.shared.set(a);
  }
  return p;
}

}  // namespace

void write_dataset(const Dataset& dataset, std::ostream& out) {
  out.write(kMagic, sizeof kMagic);
  write_u64(out, dataset.user_count());
  graph::write_edgelist_binary(dataset.graph(), out);
  for (const auto& p : dataset.profiles) write_profile(out, p);
  if (!out) fail("write failed");
}

Dataset read_dataset(std::istream& in) {
  char magic[sizeof kMagic];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    fail("bad magic (not a gplus dataset)");
  }
  const std::uint64_t users = read_u64(in);

  Dataset ds;
  ds.net.graph = graph::read_edgelist_binary(in);
  if (ds.net.graph.node_count() != users) {
    fail("node count mismatch between header and graph");
  }
  ds.profiles.reserve(users);
  for (std::uint64_t i = 0; i < users; ++i) {
    ds.profiles.push_back(read_profile(in));
  }

  // Rebuild the latent per-node vectors of GeneratedNetwork from the
  // profiles (they are the persisted superset).
  ds.net.country.resize(users);
  ds.net.city.assign(users, 0);
  ds.net.location.resize(users);
  ds.net.celebrity.resize(users);
  ds.net.fitness.assign(users, 1.0F);
  for (std::uint64_t u = 0; u < users; ++u) {
    ds.net.country[u] = ds.profiles[u].country;
    ds.net.location[u] = ds.profiles[u].home;
    ds.net.celebrity[u] = ds.profiles[u].celebrity ? 1 : 0;
  }
  return ds;
}

void save_dataset(const Dataset& dataset, const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot open for writing: " + path.string());
  write_dataset(dataset, out);
}

Dataset load_dataset(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open for reading: " + path.string());
  return read_dataset(in);
}

}  // namespace gplus::core
