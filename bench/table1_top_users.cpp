// Table 1: Top 20 users ranked by in-degree.
//
// The paper's list mixes IT founders, musicians, bloggers and actors, with
// 7 of 20 from the IT industry — unlike Twitter's media-outlet-heavy top
// list. We print the synthetic top 20 with occupation and country, and the
// IT share.
#include "bench_common.h"

#include "core/analysis.h"
#include "core/table.h"

int main() {
  using namespace gplus;
  bench::banner("Table 1", "top 20 users ranked by in-degree");

  const auto& ds = bench::dataset();
  const auto top = core::top_users(ds, 20);

  core::TextTable table({"Rank", "Name", "Occupation", "Country", "In-degree"});
  for (std::size_t i = 0; i < top.size(); ++i) {
    const auto& u = top[i];
    table.add_row({std::to_string(i + 1), u.name,
                   std::string(synth::occupation_name(u.occupation)),
                   u.country == geo::kNoCountry
                       ? "?"
                       : std::string(geo::country(u.country).code),
                   core::fmt_count(u.in_degree)});
  }
  std::cout << table.str() << "\n";
  std::cout << "IT share of top 20: "
            << core::fmt_percent(core::it_fraction(top))
            << "  (paper: 7/20 = 35%)\n";

  std::size_t celebs = 0;
  for (const auto& u : top) celebs += u.celebrity;
  std::cout << "designated public figures in top 20: " << celebs << "/20\n";
  return 0;
}
