// Table 5: Occupation-job title of the top users per country.
//
// Prints the occupation codes of the top-10 located users in each of the
// paper's top-10 countries and the Jaccard similarity of each occupation
// set against the US row (paper: CA 0.83 most similar; BR 0.18 least).
#include "bench_common.h"

#include "core/analysis.h"
#include "core/table.h"

int main() {
  using namespace gplus;
  bench::banner("Table 5", "occupation-job title of the top users per country");

  const auto& ds = bench::dataset();
  const auto rows = core::occupations_by_country(ds, 10);

  // The paper's Jaccard column for reference.
  auto paper_jaccard = [](std::string_view code) {
    if (code == "US") return "1.00";
    if (code == "IN") return "0.57";
    if (code == "BR") return "0.18";
    if (code == "GB") return "0.57";
    if (code == "CA") return "0.83";
    if (code == "DE") return "0.22";
    if (code == "ID") return "0.30";
    if (code == "MX") return "0.33";
    if (code == "IT") return "0.29";
    if (code == "ES") return "0.25";
    return "-";
  };

  core::TextTable table({"Country", "Profession codes of the top-10 users",
                         "Jaccard", "Paper"});
  for (const auto& row : rows) {
    std::string codes;
    for (const auto occ : row.occupations) {
      if (!codes.empty()) codes += ' ';
      codes += synth::occupation_code(occ);
    }
    const auto code = geo::country(row.country).code;
    table.add_row({std::string(geo::country(row.country).name), codes,
                   core::fmt_double(row.jaccard_vs_us, 2),
                   paper_jaccard(code)});
  }
  std::cout << table.str() << "\n";

  // Flavor checks the paper calls out.
  const auto has = [&](std::string_view cc, synth::Occupation occ) {
    for (const auto& row : rows) {
      if (geo::country(row.country).code != cc) continue;
      for (auto o : row.occupations) {
        if (o == occ) return true;
      }
    }
    return false;
  };
  std::cout << "Spain has politicians in its top list: "
            << (has("ES", synth::Occupation::kPolitician) ? "yes" : "no")
            << " (paper: the only such country)\n";
  std::cout << "Italy has journalists in its top list: "
            << (has("IT", synth::Occupation::kJournalist) ? "yes" : "no")
            << " (paper: 4 of 10)\n";
  return 0;
}
