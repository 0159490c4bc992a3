#include "util/bitset.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace reach {

void Bitset::Clear() { std::fill(words_.begin(), words_.end(), 0); }

size_t Bitset::Count() const {
  size_t total = 0;
  for (uint64_t w : words_) total += std::popcount(w);
  return total;
}

void Bitset::UnionWith(const Bitset& other) {
  assert(num_bits_ == other.num_bits_);
  const size_t n = words_.size();
  for (size_t i = 0; i < n; ++i) words_[i] |= other.words_[i];
}

size_t Bitset::UnionCountNew(const Bitset& other) {
  assert(num_bits_ == other.num_bits_);
  const size_t n = words_.size();
  size_t added = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t fresh = other.words_[i] & ~words_[i];
    added += std::popcount(fresh);
    words_[i] |= fresh;
  }
  return added;
}

void Bitset::SubtractWith(const Bitset& other) {
  assert(num_bits_ == other.num_bits_);
  const size_t n = words_.size();
  for (size_t i = 0; i < n; ++i) words_[i] &= ~other.words_[i];
}

bool Bitset::Intersects(const Bitset& other) const {
  assert(num_bits_ == other.num_bits_);
  const size_t n = words_.size();
  for (size_t i = 0; i < n; ++i) {
    if (words_[i] & other.words_[i]) return true;
  }
  return false;
}

void Bitset::AppendSetBits(std::vector<uint32_t>* out) const {
  for (size_t word = 0; word < words_.size(); ++word) {
    uint64_t w = words_[word];
    while (w != 0) {
      const int bit = std::countr_zero(w);
      out->push_back(static_cast<uint32_t>((word << 6) + bit));
      w &= w - 1;
    }
  }
}

}  // namespace reach
