#ifndef SIMDB_HYRACKS_KEY_TABLE_H_
#define SIMDB_HYRACKS_KEY_TABLE_H_

#include <cstdint>
#include <vector>

namespace simdb::hyracks {

/// The distinct keys of a HASH-JOIN build side or a HASH-GROUP input, as an
/// open-addressing table of dense ids (0, 1, 2, ... in insertion order) with
/// each id's precomputed hash. The table holds no key: the caller keeps each
/// id's key in a frame row and compares it in place through `equal`.
class KeyTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// The id whose hash is `hash` and for which `equal(id)` holds, or kNone.
  template <typename Equal>
  uint32_t Find(uint64_t hash, Equal equal) const {
    if (slots_.empty()) return kNone;
    for (size_t s = Slot(hash);; s = (s + 1) & mask_) {
      uint32_t id = slots_[s];
      if (id == kNone) return kNone;
      if (hashes_[id] == hash && equal(id)) return id;
    }
  }

  /// Adds a key with hash `hash` (the caller found it absent) and returns
  /// its id, the number of keys added before it.
  uint32_t Insert(uint64_t hash) {
    if ((hashes_.size() + 1) * 2 > slots_.size()) {
      Resize(slots_.empty() ? 16 : slots_.size() * 2);
    }
    uint32_t id = static_cast<uint32_t>(hashes_.size());
    hashes_.push_back(hash);
    Place(id);
    return id;
  }

  /// Sizes the table for `keys` keys without rehashing on the way.
  void Reserve(size_t keys) {
    size_t capacity = 16;
    while (capacity < keys * 2) capacity *= 2;
    if (capacity > slots_.size()) Resize(capacity);
    hashes_.reserve(keys);
  }

 private:
  /// Fibonacci hashing: the top bits of hash * 2^64/phi pick the slot.
  size_t Slot(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Place(uint32_t id) {
    size_t s = Slot(hashes_[id]);
    while (slots_[s] != kNone) s = (s + 1) & mask_;
    slots_[s] = id;
  }

  void Resize(size_t capacity) {
    slots_.assign(capacity, kNone);
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (uint32_t id = 0; id < hashes_.size(); ++id) Place(id);
  }

  std::vector<uint32_t> slots_;   // ids, kNone when empty
  std::vector<uint64_t> hashes_;  // [id]
  size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_KEY_TABLE_H_
