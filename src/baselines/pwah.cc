#include "baselines/pwah.h"

#include <algorithm>

#include "util/timer.h"

namespace reach {

namespace {

constexpr uint32_t kBlockBits = 7;
constexpr uint32_t kPartitionsPerWord = 8;
constexpr uint64_t kChunkMask = 0x3f;  // 6-bit run-length chunk.
constexpr uint32_t kSkipStride = 32;

// Extracts block `b` (7 bits) from raw words; bits beyond `num_bits` read 0.
uint64_t ReadBlock(const std::vector<uint64_t>& words, uint64_t num_bits,
                   uint64_t block) {
  const uint64_t pos = block * kBlockBits;
  const uint64_t word = pos >> 6;
  const uint32_t offset = static_cast<uint32_t>(pos & 63);
  uint64_t value = words[word] >> offset;
  if (offset > 64 - kBlockBits && word + 1 < words.size()) {
    value |= words[word + 1] << (64 - offset);
  }
  value &= 0x7f;
  // Mask off bits past the logical end.
  if (pos + kBlockBits > num_bits) {
    const uint64_t valid = num_bits > pos ? num_bits - pos : 0;
    value &= (uint64_t{1} << valid) - 1;
  }
  return value;
}

}  // namespace

/// Streaming encoder: collects literal/fill partitions into words.
class PwahEncoder {
 public:
  explicit PwahEncoder(PwahBitset* out) : out_(out) {}

  void AddLiteral(uint64_t block7) {
    EnsureRoom();
    word_ |= block7 << (partition_ * kBlockBits);
    ++partition_;
  }

  // Emits a run of `count` blocks of `value` (0/1 fill), possibly split
  // across words; within one word, consecutive same-value fill partitions
  // concatenate their 6-bit chunks.
  void AddFill(bool value, uint64_t count) {
    while (count > 0) {
      EnsureRoom();
      // Chunks still writable in this word.
      const uint32_t room = kPartitionsPerWord - partition_;
      uint64_t capacity = uint64_t{1} << (6 * room);  // Max count storable.
      uint64_t emit = std::min(count, capacity - 1);
      uint64_t remaining = emit;
      // Little-endian 6-bit chunks; always at least one partition.
      do {
        uint64_t payload = (remaining & kChunkMask) |
                           (value ? uint64_t{1} << 6 : 0);
        word_ |= payload << (partition_ * kBlockBits);
        header_ |= uint64_t{1} << partition_;
        ++partition_;
        remaining >>= 6;
      } while (remaining > 0);
      count -= emit;
    }
  }

  void Finish(uint32_t num_bits) {
    if (partition_ > 0) FlushWord();
    out_->num_bits_ = num_bits;
  }

 private:
  void EnsureRoom() {
    if (partition_ == kPartitionsPerWord) FlushWord();
    if (partition_ == 0 && out_->words_.size() % kSkipStride == 0) {
      out_->skip_blocks_.push_back(static_cast<uint32_t>(blocks_emitted_));
    }
  }

  void FlushWord() {
    out_->words_.push_back(word_ | (header_ << 56));
    blocks_emitted_ += CountBlocks();
    word_ = 0;
    header_ = 0;
    partition_ = 0;
  }

  // Blocks covered by the word being flushed.
  uint64_t CountBlocks() const {
    uint64_t blocks = 0;
    uint64_t fill_run = 0;
    int fill_shift = 0;
    bool fill_value = false;
    bool in_fill = false;
    for (uint32_t p = 0; p < partition_; ++p) {
      const bool is_fill = (header_ >> p) & 1;
      const uint64_t payload = (word_ >> (p * kBlockBits)) & 0x7f;
      if (is_fill) {
        const bool value = (payload >> 6) & 1;
        if (in_fill && value == fill_value) {
          fill_run |= (payload & kChunkMask) << fill_shift;
          fill_shift += 6;
        } else {
          blocks += fill_run;
          fill_run = payload & kChunkMask;
          fill_shift = 6;
          fill_value = value;
          in_fill = true;
        }
      } else {
        blocks += fill_run + 1;
        fill_run = 0;
        fill_shift = 0;
        in_fill = false;
      }
    }
    return blocks + fill_run;
  }

  PwahBitset* out_;
  uint64_t word_ = 0;
  uint64_t header_ = 0;
  uint32_t partition_ = 0;
  uint64_t blocks_emitted_ = 0;
};

PwahBitset PwahBitset::Compress(const Bitset& bits) {
  PwahBitset result;
  PwahEncoder encoder(&result);
  const std::vector<uint64_t>& words = bits.words();
  const uint64_t num_bits = bits.size();
  const uint64_t num_blocks = (num_bits + kBlockBits - 1) / kBlockBits;
  uint64_t run_count = 0;
  bool run_value = false;
  uint64_t b = 0;
  while (b < num_blocks) {
    // Fast path: when the cursor sits in a run of uniform words, count all
    // blocks that fit entirely inside the uniform region at word speed.
    const uint64_t pos = b * kBlockBits;
    uint64_t w = pos >> 6;
    if (words[w] == 0 || words[w] == ~uint64_t{0}) {
      const uint64_t uniform = words[w];
      uint64_t w2 = w;
      while (w2 < words.size() && words[w2] == uniform) ++w2;
      const uint64_t region_end = w2 << 6;
      if (region_end > pos + kBlockBits) {
        const uint64_t skip = (region_end - pos) / kBlockBits;
        const bool value = uniform != 0;
        if (run_count > 0 && run_value != value) {
          encoder.AddFill(run_value, run_count);
          run_count = 0;
        }
        run_value = value;
        // The final block of the bitmap may spill past num_bits; the spill
        // bits read as zero, so a ones-run must not swallow that block.
        uint64_t usable = std::min(skip, num_blocks - b);
        if (value && (b + usable) * kBlockBits > num_bits) --usable;
        if (usable > 0) {
          run_count += usable;
          b += usable;
          continue;
        }
      }
    }
    const uint64_t block = ReadBlock(words, num_bits, b);
    const bool all_zero = block == 0;
    const bool all_one = block == 0x7f;
    if (all_zero || all_one) {
      const bool value = all_one;
      if (run_count > 0 && run_value != value) {
        encoder.AddFill(run_value, run_count);
        run_count = 0;
      }
      run_value = value;
      ++run_count;
    } else {
      if (run_count > 0) {
        encoder.AddFill(run_value, run_count);
        run_count = 0;
      }
      encoder.AddLiteral(block);
    }
    ++b;
  }
  if (run_count > 0 && run_value) {
    encoder.AddFill(run_value, run_count);
  }
  // A trailing zero-fill is dropped: absent blocks decode as zero.
  encoder.Finish(static_cast<uint32_t>(num_bits));
  return result;
}

namespace {

// Walks the partitions of `word`, invoking `on_fill(value, count)` and
// `on_literal(payload)` in stream order.
template <typename FillFn, typename LiteralFn>
void ForEachRun(uint64_t word, FillFn on_fill, LiteralFn on_literal) {
  const uint64_t header = word >> 56;
  uint64_t fill_run = 0;
  int fill_shift = 0;
  bool fill_value = false;
  bool in_fill = false;
  for (uint32_t p = 0; p < kPartitionsPerWord; ++p) {
    const uint64_t payload = (word >> (p * kBlockBits)) & 0x7f;
    const bool is_fill = (header >> p) & 1;
    if (is_fill) {
      const bool value = (payload >> 6) & 1;
      if (in_fill && value == fill_value) {
        fill_run |= (payload & kChunkMask) << fill_shift;
        fill_shift += 6;
      } else {
        if (in_fill) on_fill(fill_value, fill_run);
        fill_run = payload & kChunkMask;
        fill_shift = 6;
        fill_value = value;
        in_fill = true;
      }
    } else {
      if (in_fill) {
        on_fill(fill_value, fill_run);
        in_fill = false;
        fill_run = 0;
        fill_shift = 0;
      }
      on_literal(payload);
    }
  }
  if (in_fill) on_fill(fill_value, fill_run);
}

}  // namespace

namespace {

// ORs the one-bits of range [lo, hi) into `out` at word granularity.
void OrOnesRange(Bitset* out, uint64_t lo, uint64_t hi) {
  hi = std::min<uint64_t>(hi, out->size());
  if (lo >= hi) return;
  std::vector<uint64_t>& words = out->mutable_words();
  const uint64_t first_word = lo >> 6;
  const uint64_t last_word = (hi - 1) >> 6;
  if (first_word == last_word) {
    const uint64_t mask = ((hi - lo) == 64 ? ~uint64_t{0}
                                           : ((uint64_t{1} << (hi - lo)) - 1))
                          << (lo & 63);
    words[first_word] |= mask;
    return;
  }
  words[first_word] |= ~uint64_t{0} << (lo & 63);
  for (uint64_t w = first_word + 1; w < last_word; ++w) {
    words[w] = ~uint64_t{0};
  }
  const uint64_t tail = hi & 63;
  words[last_word] |= tail == 0 ? ~uint64_t{0} : (uint64_t{1} << tail) - 1;
}

}  // namespace

void PwahBitset::DecompressOrInto(Bitset* out) const {
  uint64_t block = 0;
  for (uint64_t word : words_) {
    ForEachRun(
        word,
        [&block, out](bool value, uint64_t count) {
          if (value) {
            OrOnesRange(out, block * kBlockBits,
                        (block + count) * kBlockBits);
          }
          block += count;
        },
        [&block, out](uint64_t payload) {
          const uint64_t base = block * kBlockBits;
          if (base + kBlockBits <= out->size()) {
            out->mutable_words()[base >> 6] |= payload << (base & 63);
            const uint32_t offset = static_cast<uint32_t>(base & 63);
            if (offset > 64 - kBlockBits) {
              out->mutable_words()[(base >> 6) + 1] |=
                  payload >> (64 - offset);
            }
          } else {
            for (uint32_t i = 0; i < kBlockBits; ++i) {
              if (((payload >> i) & 1) && base + i < out->size()) {
                out->Set(base + i);
              }
            }
          }
          ++block;
        });
  }
}

bool PwahBitset::Test(uint32_t bit) const {
  if (bit >= num_bits_) return false;
  const uint64_t target_block = bit / kBlockBits;
  const uint32_t offset = bit % kBlockBits;

  // Start from the nearest skip sample at or before the target. Samples are
  // monotone in block index, so binary search applies.
  size_t word_index = 0;
  uint64_t block = 0;
  if (!skip_blocks_.empty()) {
    size_t lo = 0;
    size_t hi = skip_blocks_.size();
    while (lo + 1 < hi) {
      const size_t mid = (lo + hi) / 2;
      if (skip_blocks_[mid] <= target_block) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    word_index = lo * kSkipStride;
    block = skip_blocks_[lo];
  }

  bool result = false;
  for (; word_index < words_.size() && block <= target_block; ++word_index) {
    bool done = false;
    ForEachRun(
        words_[word_index],
        [&](bool value, uint64_t count) {
          if (!done && target_block >= block && target_block < block + count) {
            result = value;
            done = true;
          }
          block += count;
        },
        [&](uint64_t payload) {
          if (!done && block == target_block) {
            result = (payload >> offset) & 1;
            done = true;
          }
          ++block;
        });
    if (done) return result;
  }
  return false;  // Beyond the encoded stream: trailing zeros.
}

Status PwahOracle::BuildIndex(const Dag& dag) {
  Timer timer;
  const Digraph& g = dag.graph();
  const size_t n = g.num_vertices();
  const std::vector<Vertex>& topo = dag.order();

  // Renumber along reverse topological order: descendants receive smaller
  // numbers near each other, producing long fills.
  number_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) number_[topo[n - 1 - i]] = i;

  rows_.assign(n, PwahBitset());
  Bitset scratch(n);
  uint64_t words_total = 0;
  size_t processed = 0;
  for (size_t i = n; i-- > 0;) {
    const Vertex v = topo[i];
    scratch.Clear();
    for (Vertex w : g.OutNeighbors(v)) {
      rows_[w].DecompressOrInto(&scratch);
    }
    scratch.Set(number_[v]);
    rows_[v] = PwahBitset::Compress(scratch);
    words_total += rows_[v].word_count();
    if ((++processed & 0xff) == 0) {
      if (budget_.max_index_integers > 0 &&
          2 * words_total > budget_.max_index_integers) {
        return Status::ResourceExhausted("PW8 row storage over size budget");
      }
      if (budget_.max_seconds > 0 &&
          timer.ElapsedSeconds() > budget_.max_seconds) {
        return Status::ResourceExhausted("PW8 over time budget");
      }
    }
  }
  return Status::OK();
}

uint64_t PwahOracle::IndexSizeIntegers() const {
  // One 64-bit word counts as two 32-bit integers, plus the renumbering.
  uint64_t total = number_.size();
  for (const PwahBitset& row : rows_) total += 2 * row.word_count();
  return total;
}

uint64_t PwahOracle::IndexSizeBytes() const {
  uint64_t bytes = number_.size() * sizeof(uint32_t);
  for (const PwahBitset& row : rows_) bytes += row.MemoryBytes();
  return bytes;
}

}  // namespace reach
