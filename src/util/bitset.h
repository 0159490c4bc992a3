// Dynamic bitset used for transitive-closure rows, visited sets, and
// membership tests. Word-oriented so that row unions (the hot loop of
// transitive-closure construction) run at memory bandwidth.

#ifndef REACH_UTIL_BITSET_H_
#define REACH_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace reach {

/// Fixed-capacity dynamic bitset.
class Bitset {
 public:
  Bitset() = default;
  /// Creates a bitset with `num_bits` bits, all zero.
  explicit Bitset(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void Reset(size_t i) { words_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }

  /// Sets all bits to zero, keeping capacity.
  void Clear();

  /// Number of set bits.
  size_t Count() const;

  /// Bitwise OR of `other` into this. Both must have equal size.
  void UnionWith(const Bitset& other);

  /// Bitwise OR of `other` into this, returning how many bits flipped 0 -> 1.
  size_t UnionCountNew(const Bitset& other);

  /// Removes all bits present in `other` (this &= ~other).
  void SubtractWith(const Bitset& other);

  /// True if this and `other` share at least one set bit.
  bool Intersects(const Bitset& other) const;

  /// Appends the indices of all set bits to `out`.
  void AppendSetBits(std::vector<uint32_t>* out) const;

  bool operator==(const Bitset& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

  /// Raw word storage (for compression codecs).
  const std::vector<uint64_t>& words() const { return words_; }
  std::vector<uint64_t>& mutable_words() { return words_; }

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace reach

#endif  // REACH_UTIL_BITSET_H_
