#include "serve/varint.h"

namespace gplus::serve {

namespace {

/// Little-endian u32 load without alignment requirements (skip tables sit
/// at arbitrary byte offsets inside the varint stream).
std::uint32_t load_u32le(const std::uint8_t* at) noexcept {
  return static_cast<std::uint32_t>(at[0]) |
         (static_cast<std::uint32_t>(at[1]) << 8) |
         (static_cast<std::uint32_t>(at[2]) << 16) |
         (static_cast<std::uint32_t>(at[3]) << 24);
}

void store_u32le(std::uint8_t* at, std::uint32_t v) noexcept {
  at[0] = static_cast<std::uint8_t>(v);
  at[1] = static_cast<std::uint8_t>(v >> 8);
  at[2] = static_cast<std::uint8_t>(v >> 16);
  at[3] = static_cast<std::uint8_t>(v >> 24);
}

/// Number of skip-table entries for a list of `degree` entries.
std::uint64_t skip_entry_count(std::uint64_t degree) noexcept {
  if (degree <= kAdjacencyBlockEntries) return 0;
  return (degree + kAdjacencyBlockEntries - 1) / kAdjacencyBlockEntries - 1;
}

}  // namespace

std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

const std::uint8_t* get_varint(const std::uint8_t* p, const std::uint8_t* end,
                               std::uint64_t& v) noexcept {
  std::uint64_t value = 0;
  unsigned shift = 0;
  while (p < end) {
    const std::uint8_t byte = *p++;
    if (shift == 63 && byte > 1) return nullptr;  // bits above 2^64
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      v = value;
      return p;
    }
    shift += 7;
    if (shift > 63) return nullptr;  // > 10 bytes: overlong
  }
  return nullptr;  // truncated
}

std::size_t encode_adjacency_list(std::span<const graph::NodeId> sorted,
                                  std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  const std::uint64_t degree = sorted.size();
  put_varint(out, degree);

  // Reserve the fixed-width skip table; offsets are patched as each block
  // past the first is reached.
  const std::uint64_t skips = skip_entry_count(degree);
  const std::size_t skip_at = out.size();
  out.resize(out.size() + skips * 4);
  const std::size_t blocks_at = out.size();

  for (std::uint64_t i = 0; i < degree; ++i) {
    if (i % kAdjacencyBlockEntries == 0) {
      if (i != 0) {
        const std::uint64_t block = i / kAdjacencyBlockEntries;
        store_u32le(out.data() + skip_at + (block - 1) * 4,
                    static_cast<std::uint32_t>(out.size() - blocks_at));
      }
      put_varint(out, sorted[i]);  // restart: absolute id
    } else {
      put_varint(out,
                 static_cast<std::uint64_t>(sorted[i]) - sorted[i - 1] - 1);
    }
  }
  return out.size() - start;
}

AdjacencyListDecoder::AdjacencyListDecoder(const std::uint8_t* p,
                                           const std::uint8_t* end) noexcept
    : end_(end) {
  const std::uint8_t* at = get_varint(p, end, degree_);
  if (at == nullptr) return;
  const std::uint64_t skips = skip_entry_count(degree_);
  if (skips > static_cast<std::uint64_t>(end - at) / 4) return;  // truncated
  skip_table_ = skips > 0 ? at : nullptr;
  blocks_ = at + skips * 4;
  cursor_ = blocks_;
  ok_ = true;
}

bool AdjacencyListDecoder::next(graph::NodeId& value) noexcept {
  if (!ok_ || position_ >= degree_) return false;
  std::uint64_t raw = 0;
  const std::uint8_t* at = get_varint(cursor_, end_, raw);
  if (at == nullptr) {
    ok_ = false;
    return false;
  }
  std::uint64_t decoded;
  if (position_ % kAdjacencyBlockEntries == 0) {
    decoded = raw;  // restart: absolute id
  } else {
    decoded = static_cast<std::uint64_t>(previous_) + raw + 1;
  }
  if (decoded > 0xFFFFFFFFULL) {  // corrupt gap pushed past the id space
    ok_ = false;
    return false;
  }
  cursor_ = at;
  previous_ = static_cast<graph::NodeId>(decoded);
  value = previous_;
  ++position_;
  return true;
}

bool AdjacencyListDecoder::skip_to(std::uint64_t entry) noexcept {
  if (!ok_ || entry > degree_) return false;
  if (entry == degree_) {  // position at end-of-list; no bytes to touch
    position_ = degree_;
    return true;
  }
  const std::uint64_t block = entry / kAdjacencyBlockEntries;
  const std::uint64_t current_block =
      position_ / kAdjacencyBlockEntries;
  // Re-anchor on a restart unless the target is ahead of us inside the
  // block we are already decoding (then plain forward decode is cheaper
  // and keeps `previous_` valid).
  if (block != current_block || entry < position_ ||
      position_ % kAdjacencyBlockEntries == 0) {
    if (block == 0) {
      cursor_ = blocks_;
    } else {
      const std::uint8_t* slot = skip_table_ + (block - 1) * 4;
      // The table extent was validated at construction; `block` is in
      // range because entry <= degree.
      cursor_ = blocks_ + load_u32le(slot);
      if (cursor_ > end_) {
        ok_ = false;
        return false;
      }
    }
    position_ = block * kAdjacencyBlockEntries;
    previous_ = 0;
  }
  graph::NodeId scratch = 0;
  while (position_ < entry) {
    if (!next(scratch)) return false;
  }
  return true;
}

bool AdjacencyListDecoder::block_first(std::uint64_t block,
                                       std::uint64_t& value) const noexcept {
  const std::uint8_t* at =
      block == 0 ? blocks_
                 : blocks_ + load_u32le(skip_table_ + (block - 1) * 4);
  if (at > end_) return false;
  return get_varint(at, end_, value) != nullptr;
}

bool AdjacencyListDecoder::contains(graph::NodeId v) noexcept {
  if (!ok_ || degree_ == 0) return false;
  const std::uint64_t blocks =
      (degree_ + kAdjacencyBlockEntries - 1) / kAdjacencyBlockEntries;
  // Find the last block whose restart id is <= v; v can only live there.
  std::uint64_t first = 0;
  if (!block_first(0, first)) return false;
  if (v < first) return false;
  std::uint64_t lo = 0;
  std::uint64_t hi = blocks - 1;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (!block_first(mid, first)) return false;
    if (first <= v) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  if (!skip_to(lo * kAdjacencyBlockEntries)) return false;
  const std::uint64_t stop =
      std::min(degree_, (lo + 1) * kAdjacencyBlockEntries);
  graph::NodeId candidate = 0;
  while (position_ < stop && next(candidate)) {
    if (candidate == v) return true;
    if (candidate > v) return false;  // lists are strictly ascending
  }
  return false;
}

}  // namespace gplus::serve
