#include "core/label_store.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <new>
#include <ostream>
#include <string>

#include "util/thread_pool.h"

namespace reach {

namespace {

// "RLSTORE3": the sealed single-blob format. Version 3 made every section
// 8-byte aligned relative to the blob start (offsets arrays up front, one
// keys array per side, zero pads) so a mapped file can be served in place;
// version 2 interleaved per-row counts with keys and was parse-only.
// Version 2 replaced the legacy per-vector HopLabeling dump ("LABEL01"),
// whose reader resized from unvalidated untrusted size fields.
constexpr uint64_t kMagic = 0x524c53544f524533ULL;

// Fixed header: magic, n, total_out, total_in.
constexpr size_t kHeaderBytes = 4 * sizeof(uint64_t);

// Row blocks (LabelBuilder::kRowBlock rows each, so 1024 rows) per task
// of the encoder's parallel copy, which runs one partition at a time. A
// partition of the arxiv stand-in at 4 threads owns about 85 blocks, 6
// tasks at this grain. At 64 blocks it was 2 unequal tasks, and the seal
// took 2.7 ms against 2.2 ms at this grain (medians of 12 `reach_cli
// --stats` runs at 4 threads, 4-vCPU x86-64 VM).
constexpr size_t kSealBlockGrain = 16;

// How many pairs ahead of the one it intersects QueryMany locates a
// pair's spans and starts loading their end lines. Measured with
// bench_micro's BM_QueryLoop against BM_QueryMany, uniform pairs in
// 1000-pair frames (medians of 8 interleaved repetitions, three runs,
// 4-vCPU x86-64 VM with 2 MiB of L2 per core):
//   HL, cit-Patents stand-in (13.3 MB)  loop 61.0-65.8 ns/pair, D=4 48.8-50.8
//   DL, arxiv (3.9 MB)                  loop 42.8-45.9 ns/pair, D=4 36.3-39.4
// D = 8 and 16 read the same as 4 within the VM's noise, and D = 2
// gained less. Prefetching every line of a span, its midpoint, or the
// offsets a further D pairs ahead measured no better than the end lines.
constexpr size_t kAhead = 4;

// Starts loading the first and last key line of a label span: the two
// lines the range rejection of SortedIntersects reads first.
void PrefetchEnds(std::span<const uint32_t> keys) {
  if (keys.empty()) return;
  __builtin_prefetch(keys.data());
  __builtin_prefetch(keys.data() + keys.size() - 1);
}

// A row arena's first chunk; each next chunk doubles, up to the largest,
// or holds exactly the block that did not fit. Chunks are fresh pages:
// only what is carved becomes resident, and the untouched tail of a
// retired chunk costs address space alone.
constexpr size_t kFirstChunkBytes = size_t{64} << 10;
constexpr size_t kMaxChunkBytes = size_t{1} << 20;

// A chunk starts with the link to the arena's previous chunk and its own
// size, so releasing an arena walks its chunks without a side table.
struct ChunkHeader {
  std::byte* prev;
  size_t bytes;
};

// A keys section of `total` u32 entries is zero-padded to the next
// 8-byte boundary so the section after it stays aligned.
size_t KeysPadBytes(uint64_t total) {
  return (total % 2) * sizeof(uint32_t);
}

// Blob-relative byte offsets of the four array sections, and the blob
// size, for n vertices and the two side totals: the one place that knows
// the RLSTORE3 section order. Callers bound n and the totals first, so
// the arithmetic cannot wrap.
struct Layout {
  uint64_t off_out;
  uint64_t key_out;
  uint64_t off_in;
  uint64_t key_in;
  uint64_t size;
};

Layout LayoutFor(uint64_t n, uint64_t total_out, uint64_t total_in) {
  const uint64_t offsets_bytes = (n + 1) * sizeof(uint64_t);
  Layout layout;
  layout.off_out = kHeaderBytes;
  layout.key_out = layout.off_out + offsets_bytes;
  layout.off_in = layout.key_out + total_out * sizeof(uint32_t) +
                  KeysPadBytes(total_out);
  layout.key_in = layout.off_in + offsets_bytes;
  layout.size =
      layout.key_in + total_in * sizeof(uint32_t) + KeysPadBytes(total_in);
  return layout;
}

template <typename Rows>
uint64_t SideTotal(const Rows& rows) {
  uint64_t total = 0;
  for (const auto& row : rows) total += row.size;
  return total;
}

// Impossibility bound: labels are strictly ascending keys < n, so a side
// holds at most n per vertex. Division sidesteps the n * n overflow for n
// near 2^32.
bool SideTotalImpossible(uint64_t n, uint64_t total) {
  return n == 0 ? total != 0 : total / n > n;
}

// The writer pads with zeros; anything else is not a blob it produced.
Status CheckPad(const std::byte* pad, uint64_t total, const char* side) {
  for (size_t i = 0; i < KeysPadBytes(total); ++i) {
    if (pad[i] != std::byte{0}) {
      return Status::Corruption("label store " + std::string(side) +
                                " padding is not zero");
    }
  }
  return Status::OK();
}

}  // namespace

LabelStore::LabelStore(MappedRegion region) {
  const std::byte* base = region.bytes().data();
  uint64_t header[4];
  std::memcpy(header, base, sizeof(header));
  const Layout layout = LayoutFor(header[1], header[2], header[3]);
  num_vertices_ = static_cast<size_t>(header[1]);
  off_out_ = reinterpret_cast<const uint64_t*>(base + layout.off_out);
  key_out_ = reinterpret_cast<const uint32_t*>(base + layout.key_out);
  off_in_ = reinterpret_cast<const uint64_t*>(base + layout.off_in);
  key_in_ = reinterpret_cast<const uint32_t*>(base + layout.key_in);
  region_ = std::move(region);
}

// Blocks are carved from chunks of fresh pages (AllocatePages); a block a
// row gives back goes on the free list of its power-of-two size class and
// is handed out again at that class's size. Aligned to a cache line of its
// own: partitions' arenas are written by different threads. Chunks are
// freed with the arena.
class alignas(64) LabelBuilder::RowArena {
 public:
  RowArena() = default;
  ~RowArena();
  RowArena(const RowArena&) = delete;
  RowArena& operator=(const RowArena&) = delete;

  /// A block of at least *capacity keys (at least 2); *capacity becomes
  /// its size. A free block of the class that fits comes first; else a
  /// fresh one of exactly *capacity keys (`exact`) or of the next power of
  /// two.
  uint32_t* Take(size_t* capacity, bool exact);
  /// Puts a block from Take back on its class's free list (blocks of fewer
  /// than 2 keys, too small to link, are dropped).
  void Give(uint32_t* keys, size_t capacity);
  /// Bytes carved from the chunks so far.
  uint64_t CarvedBytes() const;
  /// Frees every chunk, so every block handed out dies with it, and leaves
  /// the arena empty.
  void Release();

 private:
  uint32_t* Carve(size_t keys);
  std::byte* NewChunk(size_t bytes);

  std::byte* chunks_ = nullptr;      // Newest chunk; each links the last.
  std::byte* bump_chunk_ = nullptr;  // The chunk blocks are carved from,
  uint32_t* next_ = nullptr;         // its carving cursor and end,
  uint32_t* end_ = nullptr;
  size_t bump_bytes_ = 0;            // and its size.
  uint64_t carved_before_ = 0;       // Carved from retired chunks.
  std::array<uint32_t*, 33> free_{};  // Class k: blocks of 2^k keys.
};

LabelBuilder::RowArena::~RowArena() { Release(); }

void LabelBuilder::RowArena::Release() {
  while (chunks_ != nullptr) {
    ChunkHeader header;
    std::memcpy(&header, chunks_, sizeof(header));
    FreePages(chunks_, header.bytes);
    chunks_ = header.prev;
  }
  bump_chunk_ = nullptr;
  next_ = end_ = nullptr;
  bump_bytes_ = 0;
  carved_before_ = 0;
  free_ = {};
}

std::byte* LabelBuilder::RowArena::NewChunk(size_t bytes) {
  std::byte* chunk = AllocatePages(bytes);
  if (chunk == nullptr) throw std::bad_alloc();
  const ChunkHeader header{chunks_, bytes};
  std::memcpy(chunk, &header, sizeof(header));
  chunks_ = chunk;
  return chunk;
}

uint32_t* LabelBuilder::RowArena::Carve(size_t keys) {
  if (keys > static_cast<size_t>(end_ - next_)) {
    const size_t bytes = sizeof(ChunkHeader) + keys * sizeof(uint32_t);
    carved_before_ = CarvedBytes();
    bump_bytes_ = std::max(bytes, bump_bytes_ == 0
                                      ? kFirstChunkBytes
                                      : std::min(2 * bump_bytes_,
                                                 kMaxChunkBytes));
    bump_chunk_ = NewChunk(bump_bytes_);
    next_ = reinterpret_cast<uint32_t*>(bump_chunk_ + sizeof(ChunkHeader));
    end_ = reinterpret_cast<uint32_t*>(bump_chunk_ + bump_bytes_);
  }
  uint32_t* block = next_;
  next_ += keys;
  return block;
}

uint32_t* LabelBuilder::RowArena::Take(size_t* capacity, bool exact) {
  const size_t need = std::max<size_t>(*capacity, 2);
  const int k = std::bit_width(need - 1);  // 2^k >= need.
  // A row holds at most UINT32_MAX keys (its size is a u32).
  const size_t rounded = std::min<size_t>(size_t{1} << k, UINT32_MAX);
  if (uint32_t* block = free_[k]) {
    std::memcpy(&free_[k], block, sizeof(block));
    *capacity = rounded;
    return block;
  }
  *capacity = exact ? need : rounded;
  return Carve(*capacity);
}

void LabelBuilder::RowArena::Give(uint32_t* keys, size_t capacity) {
  if (capacity < 2) return;
  const int k = std::bit_width(capacity) - 1;  // 2^k <= capacity.
  std::memcpy(keys, &free_[k], sizeof(keys));
  free_[k] = keys;
}

uint64_t LabelBuilder::RowArena::CarvedBytes() const {
  if (bump_chunk_ == nullptr) return carved_before_;
  return carved_before_ + static_cast<uint64_t>(
                              reinterpret_cast<std::byte*>(next_) -
                              bump_chunk_);
}

LabelBuilder::LabelBuilder(size_t num_vertices, size_t parts)
    : parts_(std::clamp<size_t>(parts, 1, kMaxParts)) {
  for (Side* side : {&out_, &in_}) {
    side->rows.resize(num_vertices);
    side->arenas = std::vector<RowArena>(parts_);
  }
}

LabelBuilder::LabelBuilder(LabelBuilder&&) noexcept = default;
LabelBuilder& LabelBuilder::operator=(LabelBuilder&&) noexcept = default;
LabelBuilder::~LabelBuilder() = default;

void LabelBuilder::InsertSlow(Side* side, Vertex v, uint32_t key) {
  Row& row = side->rows[v];
  uint32_t* const end = row.keys + row.size;
  uint32_t* const at = std::lower_bound(row.keys, end, key);
  if (at != end && *at == key) return;
  const size_t pos = static_cast<size_t>(at - row.keys);
  if (row.size < row.capacity) {
    std::copy_backward(at, end, end + 1);
  } else {
    RowArena& arena = side->arenas[PartOf(v)];
    size_t capacity = std::max<size_t>(row.size + 1, kFirstRowCapacity);
    uint32_t* const keys = arena.Take(&capacity, /*exact=*/false);
    std::copy(row.keys, at, keys);
    std::copy(at, end, keys + pos + 1);
    arena.Give(row.keys, row.capacity);
    row.keys = keys;
    row.capacity = static_cast<uint32_t>(capacity);
  }
  row.keys[pos] = key;
  ++row.size;
}

void LabelBuilder::Assign(Side* side, Vertex v,
                          std::span<const uint32_t> keys) {
  Row& row = side->rows[v];
  if (keys.size() > row.capacity) {
    RowArena& arena = side->arenas[PartOf(v)];
    arena.Give(row.keys, row.capacity);
    size_t capacity = keys.size();
    row.keys = arena.Take(&capacity, /*exact=*/true);
    row.capacity = static_cast<uint32_t>(capacity);
  }
  std::copy(keys.begin(), keys.end(), row.keys);
  row.size = static_cast<uint32_t>(keys.size());
}

uint64_t LabelBuilder::TotalEntries() const {
  return SideTotal(out_.rows) + SideTotal(in_.rows);
}

uint64_t LabelBuilder::StorageBytes() const {
  uint64_t bytes = 0;
  for (const Side* side : {&out_, &in_}) {
    bytes += side->rows.size() * sizeof(Row);
    for (const RowArena& arena : side->arenas) bytes += arena.CarvedBytes();
  }
  return bytes;
}

// The one RLSTORE3 encoder: writes the header and both sides of the rows
// into a fresh owned blob. Each side's offsets are one serial prefix sum;
// its rows are then copied one row partition at a time, each by up to
// `threads` workers, every row to the place its offset names, and a
// partition's arena is released as soon as its rows are copied. The
// blob's pages are only resident once written, so the section fills in
// as the arenas drain: each partition's share of the section is written
// just before that partition's rows are freed, and the whole section is
// never live next to all the rows.
LabelStore LabelBuilder::Seal(int threads) && {
  const uint64_t n = num_vertices();
  const uint64_t total_out = SideTotal(out_.rows);
  const uint64_t total_in = SideTotal(in_.rows);
  const Layout layout = LayoutFor(n, total_out, total_in);
  StatusOr<std::shared_ptr<const MappedBlob>> blob = MappedBlob::CreateOwned(
      static_cast<size_t>(layout.size), [&](std::span<std::byte> bytes) {
        std::byte* base = bytes.data();
        const uint64_t header[4] = {kMagic, n, total_out, total_in};
        std::memcpy(base, header, sizeof(header));
        const size_t blocks = (n + kRowBlock - 1) / kRowBlock;
        const auto encode_side = [this, base, blocks, threads](
                                     Side* side, uint64_t off_at,
                                     uint64_t key_at) {
          const std::vector<Row>& rows = side->rows;
          uint64_t* offsets = reinterpret_cast<uint64_t*>(base + off_at);
          uint32_t* keys = reinterpret_cast<uint32_t*>(base + key_at);
          offsets[0] = 0;
          for (size_t v = 0; v < rows.size(); ++v) {
            offsets[v + 1] = offsets[v] + rows[v].size;
          }
          for (size_t part = 0; part < parts_; ++part) {
            // The partition owns blocks part, part + parts_, ... (PartOf).
            const size_t owned =
                blocks > part ? (blocks - part + parts_ - 1) / parts_ : 0;
            ParallelFor(0, owned, kSealBlockGrain, threads, [&](size_t i) {
              const size_t first = (part + i * parts_) * kRowBlock;
              const size_t last = std::min(first + kRowBlock, rows.size());
              for (size_t v = first; v < last; ++v) {
                std::copy(rows[v].keys, rows[v].keys + rows[v].size,
                          keys + offsets[v]);
              }
            });
            side->arenas[part].Release();
          }
          const uint64_t total = offsets[rows.size()];
          std::memset(keys + total, 0, KeysPadBytes(total));
          *side = Side();
        };
        encode_side(&out_, layout.off_out, layout.key_out);
        encode_side(&in_, layout.off_in, layout.key_in);
        return Status::OK();
      });
  if (!blob.ok()) throw std::bad_alloc();
  return LabelStore(MappedRegion{std::move(*blob), 0});
}

void LabelStore::QueryMany(std::span<const VertexPair> pairs,
                           std::span<uint8_t> answers) const {
  // The located spans of the kAhead pairs after the one being intersected;
  // pair i's sit in slot i % kAhead.
  std::array<std::span<const uint32_t>, kAhead> out;
  std::array<std::span<const uint32_t>, kAhead> in;
  const auto locate = [&](size_t i) {
    out[i % kAhead] = Out(pairs[i].u);
    in[i % kAhead] = In(pairs[i].v);
    PrefetchEnds(out[i % kAhead]);
    PrefetchEnds(in[i % kAhead]);
  };
  const size_t n = pairs.size();
  for (size_t i = 0; i < std::min(n, kAhead); ++i) locate(i);
  for (size_t i = 0; i < n; ++i) {
    answers[i] = SortedIntersects(out[i % kAhead], in[i % kAhead]) ? 1 : 0;
    if (i + kAhead < n) locate(i + kAhead);
  }
}

size_t LabelStore::MemoryBytes() const {
  if (region_.blob == nullptr) return 0;
  // Exact: the blob addresses 2 offsets arrays + every key, plus only the
  // fixed header and at most two 4-byte pads, which are not counted.
  return 2 * (num_vertices_ + 1) * sizeof(uint64_t) +
         static_cast<size_t>(TotalEntries()) * sizeof(uint32_t);
}

Status LabelStore::Write(std::ostream& out) const {
  if (region_.blob == nullptr) {
    return Status::InvalidArgument("label store holds no labels to write");
  }
  const std::span<const std::byte> bytes = region_.bytes();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IOError("label store write failed");
  return Status::OK();
}

StatusOr<LabelStore> LabelStore::FromMapped(MappedRegion region) {
  if (region.blob == nullptr) {
    return Status::InvalidArgument("label store region has no backing blob");
  }
  // The blob start is 64-byte aligned (MappedBlob contract); an 8-aligned
  // offset within it keeps every u64 section aligned for in-place reads.
  if (region.offset % sizeof(uint64_t) != 0) {
    return Status::Corruption("label store region offset " +
                              std::to_string(region.offset) +
                              " is not 8-byte aligned");
  }
  const std::span<const std::byte> bytes = region.bytes();
  // Every size check below runs BEFORE the bytes it justifies are touched:
  // the region boundary is the file boundary, and dereferencing past a
  // mapped file raises SIGBUS rather than failing gracefully.
  if (bytes.size() < kHeaderBytes) {
    return Status::Corruption("label store blob truncated before header");
  }
  uint64_t header[4];
  std::memcpy(header, bytes.data(), sizeof(header));
  const uint64_t magic = header[0];
  const uint64_t n = header[1];
  const uint64_t total_out = header[2];
  const uint64_t total_in = header[3];
  if (magic != kMagic) {
    // A foreign-endian file (or any older/foreign format) fails here: the
    // magic bytes are written local-endian, so a swapped file cannot match.
    return Status::Corruption("bad label store magic");
  }
  // Strictly within the uint32 id space: n == 2^32 would leave no valid
  // key able to address the last vertex, and vertex ids are uint32.
  if (n > static_cast<uint64_t>(UINT32_MAX)) {
    return Status::Corruption("label store vertex count " +
                              std::to_string(n) + " exceeds uint32 id space");
  }
  if (SideTotalImpossible(n, total_out) || SideTotalImpossible(n, total_in)) {
    return Status::Corruption("label store totals impossible for " +
                              std::to_string(n) + " vertices");
  }
  // Overflow-safe sizing: each total is first bounded by the region size
  // (any larger value is truncation regardless), so the layout arithmetic
  // stays far from uint64 wraparound.
  const uint64_t max_entries = bytes.size() / sizeof(uint32_t);
  if (total_out > max_entries || total_in > max_entries) {
    return Status::Corruption("label store blob truncated");
  }
  const Layout layout = LayoutFor(n, total_out, total_in);
  // Exact: the label blob is always the final section of its file, so a
  // size mismatch means truncation or trailing bytes — both rejected.
  if (layout.size != bytes.size()) {
    return Status::Corruption(
        "label store blob is " + std::to_string(bytes.size()) +
        " bytes, header implies " + std::to_string(layout.size));
  }
  const std::byte* base = bytes.data();
  // The offsets arrays address memory (span construction adds them to the
  // keys base), so they are fully validated: monotone from zero, ending
  // exactly at the declared totals. Key VALUES are deliberately not
  // validated here — see label_store.h and Validate().
  const auto check_offsets = [n, base](uint64_t at, uint64_t total,
                                       const char* side) -> Status {
    const uint64_t* offsets = reinterpret_cast<const uint64_t*>(base + at);
    if (offsets[0] != 0 || offsets[n] != total) {
      return Status::Corruption("label store " + std::string(side) +
                                " offsets do not span the declared total");
    }
    for (uint64_t v = 0; v < n; ++v) {
      if (offsets[v] > offsets[v + 1]) {
        return Status::Corruption("label store " + std::string(side) +
                                  " offsets not monotone");
      }
    }
    return Status::OK();
  };
  REACH_RETURN_IF_ERROR(check_offsets(layout.off_out, total_out, "Lout"));
  REACH_RETURN_IF_ERROR(check_offsets(layout.off_in, total_in, "Lin"));
  REACH_RETURN_IF_ERROR(CheckPad(
      base + layout.key_out + total_out * sizeof(uint32_t), total_out,
      "Lout"));
  REACH_RETURN_IF_ERROR(CheckPad(
      base + layout.key_in + total_in * sizeof(uint32_t), total_in, "Lin"));
  return LabelStore(std::move(region));
}

Status LabelStore::Validate() const {
  const uint64_t n = num_vertices_;
  const auto check_side = [this, n](bool out_side,
                                    const char* side) -> Status {
    for (Vertex v = 0; v < n; ++v) {
      const std::span<const uint32_t> label = out_side ? Out(v) : In(v);
      for (size_t i = 0; i < label.size(); ++i) {
        if (label[i] >= n) {
          return Status::Corruption(
              "label store " + std::string(side) + " row " +
              std::to_string(v) + " key " + std::to_string(label[i]) +
              " out of range for " + std::to_string(n) + " vertices");
        }
        if (i > 0 && label[i - 1] >= label[i]) {
          return Status::Corruption("label store " + std::string(side) +
                                    " row " + std::to_string(v) +
                                    " keys not strictly ascending");
        }
      }
    }
    const uint32_t* keys = out_side ? key_out_ : key_in_;
    const uint64_t total = (out_side ? off_out_ : off_in_)[n];
    return CheckPad(reinterpret_cast<const std::byte*>(keys + total), total,
                    side);
  };
  REACH_RETURN_IF_ERROR(check_side(/*out_side=*/true, "Lout"));
  return check_side(/*out_side=*/false, "Lin");
}

bool LabelStore::operator==(const LabelStore& other) const {
  if (num_vertices_ != other.num_vertices_) return false;
  for (Vertex v = 0; v < num_vertices_; ++v) {
    const std::span<const uint32_t> a_out = Out(v);
    const std::span<const uint32_t> b_out = other.Out(v);
    if (!std::equal(a_out.begin(), a_out.end(), b_out.begin(), b_out.end())) {
      return false;
    }
    const std::span<const uint32_t> a_in = In(v);
    const std::span<const uint32_t> b_in = other.In(v);
    if (!std::equal(a_in.begin(), a_in.end(), b_in.begin(), b_in.end())) {
      return false;
    }
  }
  return true;
}

}  // namespace reach
