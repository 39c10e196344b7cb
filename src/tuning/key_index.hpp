// KeyIndex: a flat open-addressing map from 64-bit config keys (the
// ConfigSpace flat index) to dense ids 0, 1, 2, ... in insertion order.
//
// The annealer's per-chain "seen" sets and Glimpse's per-round scoring memo
// use it instead of node-based containers keyed on Config vectors: one probe
// sequence over two flat arrays, no allocation per key, and no vector
// hashing. Flat indices are < 2^63 (ConfigSpace::flat_indexable), so
// UINT64_MAX is free to mark an empty slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace glimpse::tuning {

class KeyIndex {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Sized so `expected` keys fit without rehashing.
  explicit KeyIndex(std::size_t expected = 0) { rehash(capacity_for(expected)); }

  std::size_t size() const { return size_; }

  /// The id of `key`, inserting it with id size() when absent; `.second` is
  /// true on insertion.
  std::pair<std::size_t, bool> insert(std::uint64_t key) {
    std::size_t s = slot_of(key);
    if (keys_[s] == key) return {ids_[s], false};
    if (2 * (size_ + 1) > keys_.size()) {
      rehash(2 * keys_.size());
      s = slot_of(key);
    }
    keys_[s] = key;
    ids_[s] = static_cast<std::uint32_t>(size_);
    return {size_++, true};
  }

  /// The id of `key`, or npos.
  std::size_t find(std::uint64_t key) const {
    std::size_t s = slot_of(key);
    return keys_[s] == key ? ids_[s] : npos;
  }

 private:
  static constexpr std::uint64_t kEmpty = std::numeric_limits<std::uint64_t>::max();

  /// Smallest power of two >= 16 keeping the load at or under one half.
  static std::size_t capacity_for(std::size_t n) {
    std::size_t cap = 16;
    while (cap < 2 * n) cap *= 2;
    return cap;
  }

  /// The slot holding `key`, or the empty slot where it would go (linear
  /// probing from a Fibonacci hash; the table is never full).
  std::size_t slot_of(std::uint64_t key) const {
    const std::size_t mask = keys_.size() - 1;
    std::size_t s = static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (keys_[s] != key && keys_[s] != kEmpty) s = (s + 1) & mask;
    return s;
  }

  void rehash(std::size_t cap) {
    std::vector<std::uint64_t> old_keys(cap, kEmpty);
    std::vector<std::uint32_t> old_ids(cap);
    old_keys.swap(keys_);
    old_ids.swap(ids_);
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c /= 2) --shift_;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      std::size_t s = slot_of(old_keys[i]);
      keys_[s] = old_keys[i];
      ids_[s] = old_ids[i];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> ids_;
  int shift_ = 64;  ///< 64 - log2(capacity): the hash keeps the top bits
  std::size_t size_ = 0;
};

}  // namespace glimpse::tuning
