// Figure 8: CCDF of the number of fields shared, per top-10 country.
//
// Paper: Indonesia and Mexico share the most; Germany is the most
// conservative (the only country with <10% of users sharing more than 12
// fields). Located users share at least Name + Places lived, so x >= 2.
#include "bench_common.h"

#include "core/geo_analysis.h"
#include "core/table.h"

namespace {

double ccdf_at(const std::vector<gplus::stats::CurvePoint>& curve, double x) {
  for (const auto& p : curve) {
    if (p.x >= x) return p.y;
  }
  return 0.0;
}

}  // namespace

int main() {
  using namespace gplus;
  bench::banner("Figure 8", "fields shared per profile, by country (CCDF)");

  const auto& ds = bench::dataset();
  const auto top10 = geo::paper_top10();

  std::vector<std::vector<stats::CurvePoint>> curves;
  curves.reserve(top10.size());
  for (auto c : top10) curves.push_back(core::country_fields_ccdf(ds, c));

  std::vector<std::string> headers = {"# fields >="};
  for (auto c : top10) headers.emplace_back(geo::country(c).code);
  core::TextTable table(std::move(headers));
  for (int f = 2; f <= 14; ++f) {
    std::vector<std::string> row = {std::to_string(f)};
    for (const auto& curve : curves) {
      row.push_back(core::fmt_double(ccdf_at(curve, f), 3));
    }
    table.add_row(std::move(row));
  }
  std::cout << table.str() << "\n";

  // Paper's two headline contrasts.
  auto curve_of =
      [&](std::string_view code) -> const std::vector<stats::CurvePoint>& {
    for (std::size_t i = 0; i < top10.size(); ++i) {
      if (geo::country(top10[i]).code == code) return curves[i];
    }
    return curves[0];
  };
  std::cout << "share with more than 10 fields: ID "
            << core::fmt_percent(ccdf_at(curve_of("ID"), 11)) << ", MX "
            << core::fmt_percent(ccdf_at(curve_of("MX"), 11)) << ", DE "
            << core::fmt_percent(ccdf_at(curve_of("DE"), 11))
            << "  (paper: DE alone under 30% at >10 fields)\n";
  bool de_lowest = true;
  for (std::size_t i = 0; i < top10.size(); ++i) {
    if (geo::country(top10[i]).code == "DE") continue;
    de_lowest &= ccdf_at(curve_of("DE"), 11) <= ccdf_at(curves[i], 11) + 1e-9;
  }
  std::cout << "Germany most conservative at >10 fields: "
            << (de_lowest ? "yes" : "NO") << "\n";
  return 0;
}
