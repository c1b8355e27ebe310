// Per-request scratch for the ShortestPath and Suggest cores (DESIGN.md
// §13–14).
//
// NodeTable is a flat open-addressing NodeId -> u32 map: linear probing
// from a Fibonacci hash, grown at load 1/2, with a list of the slots it
// filled so that clear() touches only those. Its empty-slot key is
// kNoNode, which no valid id takes (a snapshot holds at most 2^32 - 1
// nodes, so ids stop at 2^32 - 2).
//
// Each core keeps its tables (and Suggest its vectors) in thread_local
// scratch that the next request on the same lane reuses, so a request up
// to the retained size allocates nothing for them. When a request ends,
// however it ends, a ScratchLease clears the scratch and releases any
// table or vector that outgrew kScratchRetainSlots: one hub request
// cannot pin its peak footprint on a lane for the rest of the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace gplus::serve {

/// Slots (table) or elements (vector) a scratch container keeps across
/// requests; larger storage is released when the request ends. A
/// constant, chosen against peak RSS on the serve workloads (DESIGN.md
/// §13 gives the memory budget and the measurements).
inline constexpr std::size_t kScratchRetainSlots = std::size_t{1} << 14;

class NodeTable {
 public:
  /// The empty-slot key; never a valid node id.
  static constexpr graph::NodeId kNoNode = 0xFFFFFFFF;

  /// Inserts key -> value unless `key` is present. Returns the key's value
  /// slot (valid until the next insert) and whether it was inserted.
  /// `key` must not be kNoNode.
  std::pair<std::uint32_t*, bool> try_emplace(graph::NodeId key,
                                              std::uint32_t value) {
    if (2 * (used_.size() + 1) > slots_.size()) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.key == key) return {&slot.value, false};
      if (slot.key == kNoNode) {
        slot = {key, value};
        used_.push_back(static_cast<std::uint32_t>(i));
        return {&slot.value, true};
      }
    }
  }

  /// The value at `key`, or null when absent.
  const std::uint32_t* find(graph::NodeId key) const noexcept {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.key == kNoNode) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }

  /// Empties the table: walks the used-slot list, or releases the storage
  /// outright when the table grew past kScratchRetainSlots.
  void clear() noexcept {
    if (slots_.size() > kScratchRetainSlots) {
      std::vector<Slot>().swap(slots_);
      std::vector<std::uint32_t>().swap(used_);
      return;
    }
    for (const std::uint32_t i : used_) slots_[i].key = kNoNode;
    used_.clear();
  }

  std::size_t size() const noexcept { return used_.size(); }
  std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    graph::NodeId key = kNoNode;
    std::uint32_t value = 0;
  };
  static constexpr std::size_t kMinSlots = 16;
  // Slot indices are kept as u32, which bounds a table at 2^31 keys.
  static constexpr std::size_t kMaxSlots = std::size_t{1} << 32;

  // The top log2(capacity) bits of a 64-bit Fibonacci product, so keys
  // that differ only in high bits (multiples of the capacity) spread.
  std::size_t home(graph::NodeId key) const noexcept {
    return static_cast<std::size_t>(
        (std::uint64_t{key} * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  // Doubles the capacity, re-placing the keys in insertion order.
  void grow() {
    const std::size_t capacity =
        slots_.empty() ? kMinSlots : 2 * slots_.size();
    if (capacity > kMaxSlots) throw std::length_error("NodeTable is full");
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
    for (std::uint32_t& at : used_) {
      const Slot slot = old[at];
      std::size_t i = home(slot.key);
      while (slots_[i].key != kNoNode) i = (i + 1) & mask_;
      slots_[i] = slot;
      at = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> used_;  // filled slots, in insertion order
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

/// Empties `v`, releasing its storage when it outgrew kScratchRetainSlots.
template <typename T>
void clear_scratch(std::vector<T>& v) noexcept {
  if (v.capacity() > kScratchRetainSlots) {
    std::vector<T>().swap(v);
  } else {
    v.clear();
  }
}

/// Clears a core's thread_local scratch when the request that holds it
/// ends, on every path out of the core.
template <typename Scratch>
class ScratchLease {
 public:
  explicit ScratchLease(Scratch& scratch) noexcept : scratch_(scratch) {}
  ~ScratchLease() { scratch_.clear(); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

 private:
  Scratch& scratch_;
};

}  // namespace gplus::serve
