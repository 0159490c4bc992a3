// PWAH-8: partitioned word-aligned hybrid compression of reachability
// bitmaps (van Schaik & de Moor, SIGMOD 2011; the paper's PW8 baseline).
//
// Codec layout: each 64-bit word = 8-bit header (top byte) + 8 payload
// partitions of 7 bits. Header bit i set => partition i is a *fill*:
// payload bit 6 is the fill value, payload bits 0..5 are a 6-bit chunk of
// the run length measured in 7-bit blocks. Consecutive fill partitions with
// the same value inside one word form an extended fill whose chunks
// concatenate little-endian (up to 48 bits of run length per word). Header
// bit clear => the partition holds 7 literal bitmap bits.

#ifndef REACH_BASELINES_PWAH_H_
#define REACH_BASELINES_PWAH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "graph/digraph.h"
#include "util/bitset.h"

namespace reach {

/// One compressed bitmap row.
class PwahBitset {
 public:
  PwahBitset() = default;

  /// Compresses a plain bitset.
  static PwahBitset Compress(const Bitset& bits);

  /// ORs the decompressed content into `out` (out->size() >= num_bits()).
  void DecompressOrInto(Bitset* out) const;

  /// Random-access bit test (linear scan with sampled skip points).
  bool Test(uint32_t bit) const;

  uint32_t num_bits() const { return num_bits_; }
  size_t word_count() const { return words_.size(); }
  uint64_t MemoryBytes() const {
    return words_.size() * sizeof(uint64_t) +
           skip_blocks_.size() * sizeof(uint32_t);
  }

 private:
  friend class PwahEncoder;

  uint32_t num_bits_ = 0;
  std::vector<uint64_t> words_;
  /// skip_blocks_[k] = index of the first block encoded by word k*stride.
  std::vector<uint32_t> skip_blocks_;
};

/// PWAH-compressed transitive closure oracle (the "PW8" table column).
class PwahOracle : public ReachabilityOracle {
 protected:
  Status BuildIndex(const Dag& dag) override;

 public:

  bool Reachable(Vertex u, Vertex v) const override {
    return u == v || rows_[u].Test(number_[v]);
  }

  std::string name() const override { return "PW8"; }
  uint64_t IndexSizeIntegers() const override;
  uint64_t IndexSizeBytes() const override;

 private:
  std::vector<uint32_t> number_;  // Topological/DFS renumbering for locality.
  std::vector<PwahBitset> rows_;
};

}  // namespace reach

#endif  // REACH_BASELINES_PWAH_H_
