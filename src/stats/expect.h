// Precondition checking shared across the gplusgraph libraries.
//
// `GPLUS_EXPECT(cond, msg)` throws std::invalid_argument when a documented
// precondition of a public API is violated. These checks are active in all
// build types: the library is a research-analysis tool where a silently wrong
// answer is far more expensive than a branch.
#pragma once

#include <stdexcept>
#include <string>

namespace gplus {

/// Throws std::invalid_argument with a `where: what` message.
[[noreturn]] inline void fail_expect(const char* where,
                                     const std::string& what) {
  throw std::invalid_argument(std::string(where) + ": " + what);
}

}  // namespace gplus

#define GPLUS_EXPECT(cond, msg)                  \
  do {                                           \
    if (!(cond)) ::gplus::fail_expect(__func__, (msg)); \
  } while (false)
