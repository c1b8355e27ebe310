// Figure 7: (a) GDP per capita vs Google+ penetration rate (GPR);
//           (b) GDP per capita vs Internet penetration rate (IPR).
//
// Paper observations: IPR is nearly linear in GDP per capita; GPR is not —
// India tops GPR despite low GDP, while Japan / Russia / China sit far
// below their Internet penetration (domestic networks / blocking).
#include "bench_common.h"

#include "core/geo_analysis.h"
#include "core/table.h"
#include "stats/descriptive.h"

int main() {
  using namespace gplus;
  bench::banner("Figure 7", "GDP per capita vs Google+ / Internet penetration");

  const auto& ds = bench::dataset();
  auto points = core::penetration_by_country(ds);
  const std::size_t top_n = std::min<std::size_t>(20, points.size());

  core::TextTable table({"Country", "Region", "GDP/capita (PPP)",
                         "GPR (relative)", "IPR", "Dataset users"});
  for (std::size_t i = 0; i < top_n; ++i) {
    const auto& p = points[i];
    const auto& c = geo::country(p.country);
    table.add_row(
        {std::string(c.name), std::string(geo::region_name(c.region)),
         core::fmt_count(static_cast<std::uint64_t>(p.gdp_per_capita)),
         core::fmt_double(p.gpr_relative, 3), core::fmt_percent(p.ipr, 0),
         core::fmt_count(p.dataset_users)});
  }
  std::cout << table.str() << "\n";

  // Correlation structure (the figure's headline contrast).
  std::vector<double> gdp, ipr, gpr;
  for (std::size_t i = 0; i < top_n; ++i) {
    gdp.push_back(points[i].gdp_per_capita);
    ipr.push_back(points[i].ipr);
    gpr.push_back(points[i].gpr_relative);
  }
  const double corr_ipr = stats::pearson_correlation(gdp, ipr);
  const double corr_gpr = stats::pearson_correlation(gdp, gpr);
  std::cout << "corr(GDP, IPR) = " << core::fmt_double(corr_ipr, 2)
            << "  (paper: near-linear)\n";
  std::cout << "corr(GDP, GPR) = " << core::fmt_double(corr_gpr, 2)
            << "  (paper: no such trend)\n";
  std::cout << "GPR leader: " << geo::country(points[0].country).name
            << "  (paper: India)\n";

  auto gpr_of = [&](std::string_view code) {
    for (const auto& p : points) {
      if (geo::country(p.country).code == code) return p.gpr_relative;
    }
    return 0.0;
  };
  std::cout << "low-GDP countries with rich-country-level adoption: BR "
            << core::fmt_double(gpr_of("BR"), 2) << ", MX "
            << core::fmt_double(gpr_of("MX"), 2) << ", TH "
            << core::fmt_double(gpr_of("TH"), 2) << " vs GB "
            << core::fmt_double(gpr_of("GB"), 2) << ", AU "
            << core::fmt_double(gpr_of("AU"), 2) << ", CA "
            << core::fmt_double(gpr_of("CA"), 2) << "\n";
  std::cout << "domestic-network gap (GPR far below IPR rank): JP "
            << core::fmt_double(gpr_of("JP"), 2) << ", RU "
            << core::fmt_double(gpr_of("RU"), 2) << ", CN "
            << core::fmt_double(gpr_of("CN"), 2) << "\n";
  return 0;
}
