// Least-squares regression and the paper's power-law CCDF fit.
//
// §3.3.1 fits the degree CCDF with C·x^{-α} by "simple statistical linear
// regression (in the log-log scale)", reporting α = 1.3 (in) / 1.2 (out)
// with R² = 0.99. `fit_power_law_ccdf` reproduces that estimator exactly.
#pragma once

#include <cstdint>
#include <span>

#include "stats/distribution.h"

namespace gplus::stats {

/// Result of ordinary least squares y = intercept + slope * x.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
  std::size_t points = 0;
};

/// Ordinary least-squares fit. Requires >= 2 points with nonconstant x.
LinearFit linear_regression(std::span<const double> x,
                            std::span<const double> y);

/// Power-law fit of a CCDF: P[X >= x] ≈ C · x^{-alpha}.
struct PowerLawFit {
  double alpha = 0.0;      // positive exponent of the CCDF
  double log10_c = 0.0;    // log10 of the prefactor
  double r_squared = 0.0;
  std::size_t points = 0;  // number of CCDF points used in the regression
};

/// Fits log10(CCDF) = log10(C) - alpha * log10(x) over samples >= `x_min`
/// (x_min >= 1 keeps log defined; the paper's plots start at degree 1).
/// Uses the exact per-value CCDF points, mirroring the paper's method.
PowerLawFit fit_power_law_ccdf(std::span<const std::uint64_t> values,
                               std::uint64_t x_min = 1);

/// Same fit applied to an already-computed CCDF curve (points with x < x_min
/// or y == 0 are skipped).
PowerLawFit fit_power_law_curve(std::span<const CurvePoint> ccdf,
                                double x_min = 1.0);

}  // namespace gplus::stats
