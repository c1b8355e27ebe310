// Little-endian payload writers shared by every request family (the wire
// layouts are documented in DESIGN.md §9).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gplus::serve {

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// Overwrites the u32 at `at` — a deadline mid-emission patching the
/// count field a page already wrote.
inline void patch_u32(std::vector<std::uint8_t>& out, std::size_t at,
                      std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace gplus::serve
