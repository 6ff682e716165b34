#ifndef PRISMA_COMMON_SLAB_H_
#define PRISMA_COMMON_SLAB_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace prisma {

/// A vector of reusable slots with a free list, addressed by a 32-bit
/// index. Simulation events that park their state here capture only
/// {owner, slot}, which std::function stores inline, so scheduling them
/// allocates nothing. A freed slot keeps its last contents (and their
/// capacity) until it is taken again; `Add` hands it back as it was left.
template <typename T>
class Slab {
 public:
  /// Takes a free slot, growing the slab when none is free. Invalidates
  /// references into the slab.
  uint32_t Add() {
    if (free_.empty()) {
      PRISMA_CHECK(items_.size() < UINT32_MAX) << "slab exhausted";
      free_.push_back(static_cast<uint32_t>(items_.size()));
      items_.emplace_back();
    }
    const uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  /// Returns `slot` to the free list.
  void Free(uint32_t slot) { free_.push_back(slot); }

  T& operator[](uint32_t slot) { return items_[slot]; }
  const T& operator[](uint32_t slot) const { return items_[slot]; }
  /// Slots ever created (taken and free).
  size_t size() const { return items_.size(); }

 private:
  std::vector<T> items_;
  std::vector<uint32_t> free_;
};

}  // namespace prisma

#endif  // PRISMA_COMMON_SLAB_H_
