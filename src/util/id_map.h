#ifndef MAD_UTIL_ID_MAP_H_
#define MAD_UTIL_ID_MAP_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mad {

/// Hash map from a nonzero 64-bit id (an AtomId value) to a 64-bit value:
/// linear probing over a power-of-two slot array at most half full,
/// multiplicative hashing, backward-shift deletion. A probe usually reads
/// one cache line, where std::unordered_map pays a modulo and two dependent
/// loads; it sits on the per-atom paths of derivation. Key 0 marks an empty
/// slot (AtomId 0 is the invalid id and is never stored).
class IdMap {
 public:
  /// The value stored for `key`, or nullptr. Invalidated by mutation.
  const uint64_t* Find(uint64_t key) const {
    if (slots_.empty()) return nullptr;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == 0) return nullptr;
    }
  }

  /// The value slot for `key`, inserted as `fresh` when absent; `inserted`
  /// reports which happened. Invalidated by the next insertion.
  uint64_t& FindOrInsert(uint64_t key, uint64_t fresh, bool* inserted) {
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(std::max<size_t>(16, 2 * slots_.size()));
    }
    size_t i = Home(key);
    while (slots_[i].key != key && slots_[i].key != 0) i = (i + 1) & mask_;
    *inserted = slots_[i].key == 0;
    if (*inserted) {
      slots_[i] = Slot{key, fresh};
      ++size_;
    }
    return slots_[i].value;
  }

  void Assign(uint64_t key, uint64_t value) {
    bool inserted = false;
    FindOrInsert(key, value, &inserted) = value;
  }

  void Erase(uint64_t key) {
    if (slots_.empty()) return;
    size_t hole = Home(key);
    for (; slots_[hole].key != key; hole = (hole + 1) & mask_) {
      if (slots_[hole].key == 0) return;
    }
    // Backward shift: pull each later member of the probe run whose home
    // does not lie cyclically in (hole, j] into the hole.
    for (size_t j = (hole + 1) & mask_; slots_[j].key != 0;
         j = (j + 1) & mask_) {
      const size_t home = Home(slots_[j].key);
      if (hole <= j ? (hole < home && home <= j) : (hole < home || home <= j)) {
        continue;
      }
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole] = Slot{};
    --size_;
  }

  void Reserve(size_t n) {
    if (2 * n > slots_.size()) {
      Rehash(std::bit_ceil(std::max<size_t>(16, 2 * n)));
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint64_t value = 0;
  };

  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& slot : old) {
      if (slot.key == 0) continue;
      size_t i = Home(slot.key);
      while (slots_[i].key != 0) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace mad

#endif  // MAD_UTIL_ID_MAP_H_
