// Shared scaffolding for the reproduction benches.
//
// Every bench regenerates the standard calibrated dataset (deterministic,
// seed 42). Scale with GPLUS_SCALE (node count, default 150,000) — larger
// graphs sharpen tails at the cost of runtime. GPLUS_SEED overrides the
// seed.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/dataset.h"

namespace gplus::bench {

/// The unsigned decimal value of env var `name`, or `fallback` when it is
/// unset. Anything else — empty, signed, non-numeric, trailing junk
/// (GPLUS_SCALE=2e4) or out of range — prints one line and exits 2.
inline std::size_t env_or(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (*value < '0' || *value > '9' || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "gplus: invalid %s='%s' (want an unsigned integer)\n",
                 name, value);
    std::exit(2);
  }
  return static_cast<std::size_t>(parsed);
}

inline std::size_t scale() { return env_or("GPLUS_SCALE", 150'000); }
inline std::uint64_t seed() { return env_or("GPLUS_SEED", 42); }

/// The shared standard dataset (generated once per process).
inline const core::Dataset& dataset() {
  static const core::Dataset instance =
      core::make_standard_dataset(scale(), seed());
  return instance;
}

/// Prints the bench banner: what paper artifact this binary regenerates.
inline void banner(const std::string& artifact,
                   const std::string& description) {
  std::cout << "=== " << artifact << " — " << description << " ===\n";
  std::cout << "dataset: " << scale() << " synthetic users, seed " << seed()
            << " (paper: 27.5M crawled profiles)\n\n";
}

}  // namespace gplus::bench
