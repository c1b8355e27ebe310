#include "stats/regression.h"

#include <cmath>
#include <vector>

#include "stats/expect.h"

namespace gplus::stats {

LinearFit linear_regression(std::span<const double> x,
                            std::span<const double> y) {
  GPLUS_EXPECT(x.size() == y.size(), "x and y must have equal length");
  GPLUS_EXPECT(x.size() >= 2, "need at least two points");
  const auto n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  GPLUS_EXPECT(sxx > 0.0, "x values must not all be equal");

  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.points = x.size();
  if (syy == 0.0) {
    fit.r_squared = 1.0;  // perfectly flat data, perfectly fit by a flat line
  } else {
    double ss_res = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double pred = fit.intercept + fit.slope * x[i];
      ss_res += (y[i] - pred) * (y[i] - pred);
    }
    fit.r_squared = 1.0 - ss_res / syy;
  }
  return fit;
}

PowerLawFit fit_power_law_ccdf(std::span<const std::uint64_t> values,
                               std::uint64_t x_min) {
  GPLUS_EXPECT(x_min >= 1, "x_min must be >= 1 for log-log regression");
  const auto ccdf = integer_ccdf(values);
  return fit_power_law_curve(ccdf, static_cast<double>(x_min));
}

PowerLawFit fit_power_law_curve(std::span<const CurvePoint> ccdf,
                                double x_min) {
  std::vector<double> lx, ly;
  lx.reserve(ccdf.size());
  ly.reserve(ccdf.size());
  for (const auto& p : ccdf) {
    if (p.x < x_min || p.y <= 0.0) continue;
    lx.push_back(std::log10(p.x));
    ly.push_back(std::log10(p.y));
  }
  GPLUS_EXPECT(lx.size() >= 2, "not enough CCDF points above x_min to fit");
  const LinearFit lin = linear_regression(lx, ly);
  PowerLawFit fit;
  fit.alpha = -lin.slope;
  fit.log10_c = lin.intercept;
  fit.r_squared = lin.r_squared;
  fit.points = lin.points;
  return fit;
}

}  // namespace gplus::stats
