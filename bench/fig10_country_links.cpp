// Figure 10: Link distribution across the top 10 countries.
//
// Row-normalized country-to-country edge weights over located users.
// Paper: US/IN/BR/ID inward-looking (self-loops 0.74-0.79), GB/CA
// outward-looking (0.30/0.33) with their dominant foreign mass flowing to
// the US; edges under 0.01 omitted from the figure.
#include "bench_common.h"

#include "core/geo_analysis.h"
#include "core/table.h"

int main() {
  using namespace gplus;
  bench::banner("Figure 10", "link distribution across the top countries");

  const auto& ds = bench::dataset();
  const auto graph = core::country_link_graph(ds);

  std::vector<std::string> headers = {"From \\ To"};
  for (auto c : graph.countries) headers.emplace_back(geo::country(c).code);
  core::TextTable table(std::move(headers));
  for (std::size_t i = 0; i < graph.countries.size(); ++i) {
    std::vector<std::string> row = {
        std::string(geo::country(graph.countries[i]).code)};
    for (std::size_t j = 0; j < graph.countries.size(); ++j) {
      const double w = graph.weight[i][j];
      // The figure omits weights below 0.01.
      row.push_back(w < 0.01 ? "." : core::fmt_double(w, 2));
    }
    table.add_row(std::move(row));
  }
  std::cout << table.str() << "\n";

  auto paper_self = [](std::string_view code) {
    if (code == "US") return 0.79;
    if (code == "IN") return 0.77;
    if (code == "BR") return 0.78;
    if (code == "GB") return 0.30;
    if (code == "CA") return 0.33;
    if (code == "DE") return 0.38;
    if (code == "ID") return 0.74;
    if (code == "MX") return 0.46;
    if (code == "IT") return 0.56;
    if (code == "ES") return 0.49;
    return 0.0;
  };
  core::TextTable self_loops(
      {"Country", "Self-loop (ours)", "Self-loop (paper)"});
  for (std::size_t i = 0; i < graph.countries.size(); ++i) {
    const auto code = geo::country(graph.countries[i]).code;
    self_loops.add_row({std::string(code),
                        core::fmt_double(graph.self_loop(i), 2),
                        core::fmt_double(paper_self(code), 2)});
  }
  std::cout << self_loops.str() << "\n";

  // The headline structural claims.
  std::size_t us = 0, gb = 0, ca = 0;
  for (std::size_t i = 0; i < graph.countries.size(); ++i) {
    const auto code = geo::country(graph.countries[i]).code;
    if (code == "US") us = i;
    if (code == "GB") gb = i;
    if (code == "CA") ca = i;
  }
  double influx = 0.0;
  for (std::size_t i = 0; i < graph.countries.size(); ++i) {
    if (i != us) influx += graph.weight[i][us];
  }
  std::cout << "total foreign row-mass flowing into the US: "
            << core::fmt_double(influx, 2)
            << " (paper: dominant influx from most countries)\n";
  std::cout << "GB -> US " << core::fmt_double(graph.weight[gb][us], 2)
            << " (paper: 0.36), CA -> US "
            << core::fmt_double(graph.weight[ca][us], 2) << " (paper: 0.36)\n";
  return 0;
}
