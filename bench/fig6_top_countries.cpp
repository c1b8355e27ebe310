// Figure 6: Top 10 countries with Google+ users (share of located users).
#include "bench_common.h"

#include "core/geo_analysis.h"
#include "core/table.h"

int main() {
  using namespace gplus;
  bench::banner("Figure 6", "top 10 countries with Google+ users");

  const auto& ds = bench::dataset();
  const auto shares = core::located_country_shares(ds);

  // The paper's Fig 6 bars (US/IN read off Table 3; the rest off the plot).
  auto paper_share = [](std::string_view code) {
    if (code == "US") return "31.4%";
    if (code == "IN") return "16.7%";
    if (code == "BR") return "5.8%";
    if (code == "GB") return "3.4%";
    if (code == "CA") return "2.3%";
    if (code == "DE") return "~2.2%";
    if (code == "ID") return "~2.1%";
    if (code == "MX") return "~1.9%";
    if (code == "IT") return "~1.8%";
    if (code == "ES") return "~1.6%";
    return "-";
  };

  core::TextTable table(
      {"Rank", "Country", "Located users", "Fraction", "Paper"});
  for (std::size_t i = 0; i < std::min<std::size_t>(10, shares.size()); ++i) {
    const auto& s = shares[i];
    table.add_row({std::to_string(i + 1),
                   std::string(geo::country(s.country).name),
                   core::fmt_count(s.users), core::fmt_percent(s.fraction, 1),
                   paper_share(geo::country(s.country).code)});
  }
  std::cout << table.str() << "\n";

  std::uint64_t located = 0;
  for (graph::NodeId u = 0; u < ds.user_count(); ++u) located += ds.located(u);
  std::cout << "located users: " << core::fmt_count(located) << " of "
            << core::fmt_count(ds.user_count()) << " ("
            << core::fmt_percent(static_cast<double>(located) /
                                 static_cast<double>(ds.user_count()), 1)
            << "; paper: 26.75% share 'places lived')\n";
  return 0;
}
