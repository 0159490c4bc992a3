// Hop-label storage (reachability oracle labels): per-vertex Lout/Lin
// sets of 32-bit keys. A query u -> v is a sorted-array intersection test
// (util/sorted_ops.h) — the paper (Section 1) points out that storing
// labels in sorted arrays rather than sets removes the query-time gap
// earlier studies reported for 2-hop labelings.
//
// Lifecycle, one way, one type per phase:
//
//   LabelBuilder            Seal()              LabelStore
//   ────────────            ──────              ──────────
//   per-vertex rows in      encodes both        offsets[] + keys[] CSR:
//   arenas owned by their   sides into one      one contiguous array per
//   row partition; insert   blob and releases   side, per-vertex spans,
//   and whole-row assign    each side's         exact MemoryBytes(),
//   (construction mutates   arenas: a few       cache-friendly queries
//   labels constantly)      chunks per side
//
// Construction algorithms fill a LabelBuilder (they interleave reads and
// inserts); BuildIndex seals it once the labeling is final, so every query
// after a successful Build touches two contiguous spans instead of chasing
// two rows scattered over the build's arenas. The paper's labelings are
// built once and then only queried, so a sealed store never goes back to
// rows: LabelStore has no member that changes a label.
//
// A LabelStore is a view of an RLSTORE3 blob (the snapshot format, see
// Write) held in a MappedBlob. Seal() encodes the builder's rows into an
// owned blob (MappedBlob::CreateOwned); FromMapped points into a blob
// holding a snapshot — an mmap of the file (the zero-copy load path: the
// file's bytes ARE the index, no parse-and-copy) or the file read into
// memory (MappedBlob::OpenOwned). Either way the store retains the blob
// shared_ptr, so the bytes outlive every span handed out while the store
// lives, and a copy of a store shares the immutable blob.
//
// The key space is algorithm-defined: Distribution Labeling stores
// total-order positions (labels stay sorted by construction), Hierarchical
// Labeling and 2HOP store vertex ids. Either way every key is < n and
// every label is strictly ascending. FromMapped validates the structure
// (header, sizes, offsets arrays, padding) but deliberately not the key
// values: keys only ever feed sorted-intersection *comparisons*, never
// indexing, so a corrupt key can flip an answer but can never touch
// memory out of bounds — and a full key scan would fault in every page of
// the index, which is exactly what zero-copy load avoids. Validate() is
// that full scan, run explicitly by callers that want it.

#ifndef REACH_CORE_LABEL_STORE_H_
#define REACH_CORE_LABEL_STORE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "util/mapped_blob.h"
#include "util/sorted_ops.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace reach {

/// Sealed two-sided hop labeling over a fixed vertex set: a read-only view
/// of one RLSTORE3 blob (see the header comment). Built by
/// LabelBuilder::Seal or loaded by FromMapped; a default-constructed store
/// covers no vertices.
class LabelStore {
 public:
  LabelStore() = default;

  size_t num_vertices() const { return num_vertices_; }

  /// True when the labels are an mmap of a snapshot file rather than an
  /// owned region (Seal, or a file read into memory).
  bool mapped() const {
    return region_.blob != nullptr && region_.blob->mapped();
  }

  std::span<const uint32_t> Out(Vertex v) const {
    return {key_out_ + off_out_[v],
            static_cast<size_t>(off_out_[v + 1] - off_out_[v])};
  }
  std::span<const uint32_t> In(Vertex v) const {
    return {key_in_ + off_in_[v],
            static_cast<size_t>(off_in_[v + 1] - off_in_[v])};
  }

  /// True iff Lout(u) and Lin(v) share a hop (adaptive intersection).
  bool Query(Vertex u, Vertex v) const {
    return SortedIntersects(Out(u), In(v));
  }

  /// Total number of stored label entries, i.e. the paper's "index size in
  /// number of integers" metric (Figures 3 and 4).
  uint64_t TotalEntries() const {
    return off_out_[num_vertices_] + off_in_[num_vertices_];
  }

  /// Exact footprint of the label arrays: offsets + keys, no headers or
  /// slack. For a mapped store this counts the bytes addressed through the
  /// view, though only the touched pages are ever resident. Zero for a
  /// default-constructed store, which holds no blob.
  size_t MemoryBytes() const;

  /// Binary serialization ("RLSTORE3", local-endian): one write of the
  /// blob's bytes. InvalidArgument for a default-constructed store.
  ///
  /// Layout, all sections 8-byte aligned relative to the blob start:
  ///   u64 magic, u64 n, u64 total_out, u64 total_in
  ///   u64 offsets_out[n + 1]
  ///   u32 keys_out[total_out], zero-padded to 8
  ///   u64 offsets_in[n + 1]
  ///   u32 keys_in[total_in], zero-padded to 8
  Status Write(std::ostream& out) const;

  /// The one load path: the arrays point into `region` (which must start
  /// 8-byte aligned within its 64-aligned blob and extend exactly to the
  /// blob's end — the label blob is always a snapshot's final section).
  /// Validates header arithmetic, the full offsets arrays and the zero
  /// padding against the region size BEFORE dereferencing any array
  /// section, so a truncated or forged file is rejected without ever
  /// touching bytes past the mapping (no SIGBUS). Key values are not
  /// validated — see the header comment and Validate(). The returned
  /// store retains region.blob.
  static StatusOr<LabelStore> FromMapped(MappedRegion region);

  /// Full scan of the key values: every key below n and every label
  /// strictly ascending; the padding is re-checked as zero. Corruption
  /// names the side and row at fault. O(index size), and on a mapped store
  /// it faults in every page.
  Status Validate() const;

  /// Logical equality: same vertex count and per-vertex labels, regardless
  /// of backing (a built store equals its mapped snapshot).
  bool operator==(const LabelStore& other) const;

 private:
  friend class LabelBuilder;

  /// Points the read surface into `region`, whose header and sizes the
  /// encoder produced or FromMapped checked, and retains its blob.
  explicit LabelStore(MappedRegion region);

  /// The offsets of a store without a blob: no rows, no entries.
  static constexpr uint64_t kNoOffsets[1] = {0};

  size_t num_vertices_ = 0;
  // Keys of vertex v occupy key_xxx_[off_xxx_[v] .. off_xxx_[v + 1]), all
  // pointing into region_.
  const uint64_t* off_out_ = kNoOffsets;
  const uint64_t* off_in_ = kNoOffsets;
  const uint32_t* key_out_ = nullptr;
  const uint32_t* key_in_ = nullptr;
  // The blob (and the label section's offset in it); empty in a
  // default-constructed store.
  MappedRegion region_;
};

/// Build-phase labels: one growable row per vertex and side, filled by the
/// construction algorithms and then sealed, once, into a LabelStore.
///
/// Rows are dealt to parts() row partitions in blocks of kRowBlock
/// consecutive ids, round-robin (PartOf). A partition keeps its rows' keys
/// in two arenas of its own, one per side: chunks of fresh pages carved
/// into blocks, with the blocks that rows outgrow kept on per-size free
/// lists for the partition's next growing row. So a row grows in memory
/// that only its partition's writer touches, with no malloc, no lock and
/// no free into another thread's heap, and Seal releases a few chunks
/// instead of a heap block per row.
///
/// Thread safety: writes (Insert*, Assign*) to rows of one partition must
/// not overlap; writes to rows of different partitions may run
/// concurrently, and so may reads of any row that is not being written.
/// DistributeLabels runs one append task per partition, and
/// ForEachRowByPart deals a list of rows out the same way.
class LabelBuilder {
 public:
  /// Rows go to partitions in blocks of this many consecutive ids. Row
  /// headers are 16 bytes, so a block of them is 16 cache lines: dealing
  /// single rows would give the rows sharing a header line different
  /// writers. That made DL's append about a tenth slower on the arxiv
  /// stand-in at 4 threads (4-vCPU x86-64 VM, 9 of 12 paired runs,
  /// measured with 24-byte row headers).
  static constexpr size_t kRowBlock = 64;
  /// Most partitions a builder keeps; a larger request is clamped.
  static constexpr size_t kMaxParts = 256;

  /// `parts` row partitions (at least 1): up to that many writers at once.
  explicit LabelBuilder(size_t num_vertices, size_t parts = 1);
  LabelBuilder(LabelBuilder&&) noexcept;
  LabelBuilder& operator=(LabelBuilder&&) noexcept;
  ~LabelBuilder();

  size_t num_vertices() const { return out_.rows.size(); }
  size_t parts() const { return parts_; }
  size_t PartOf(Vertex v) const { return v / kRowBlock % parts_; }

  /// Inserts a key keeping the label sorted; a key above the row's back is
  /// an O(1) append. A row's first block holds kFirstRowCapacity keys, and
  /// a full row moves to a block of the next power of two.
  void InsertOut(Vertex v, uint32_t key) { Insert(&out_, v, key); }
  void InsertIn(Vertex v, uint32_t key) { Insert(&in_, v, key); }

  /// Replaces the whole row with `keys` (strictly ascending, not a view
  /// of this builder). A row that must grow gets a block of exactly that
  /// size, or a free one that fits.
  void AssignOut(Vertex v, std::span<const uint32_t> keys) {
    Assign(&out_, v, keys);
  }
  void AssignIn(Vertex v, std::span<const uint32_t> keys) {
    Assign(&in_, v, keys);
  }

  std::span<const uint32_t> Out(Vertex v) const {
    return {out_.rows[v].keys, out_.rows[v].size};
  }
  std::span<const uint32_t> In(Vertex v) const {
    return {in_.rows[v].keys, in_.rows[v].size};
  }

  /// Calls write(v, worker) once for every v of `rows`, on up to parts()
  /// workers: one task per partition writes that partition's rows, in
  /// `rows` order, so each call may write row v. `worker` is a dense
  /// participant id below parts(), for per-worker scratch.
  template <typename Write>
  void ForEachRowByPart(std::span<const Vertex> rows, Write write) {
    ParallelChunks(0, parts(), 1, static_cast<int>(parts()),
                   [&](const ChunkInfo& chunk) {
                     for (const Vertex v : rows) {
                       if (PartOf(v) == chunk.begin) write(v, chunk.worker);
                     }
                   });
  }

  /// Total number of label entries, the sealed store's TotalEntries().
  uint64_t TotalEntries() const;

  /// Bytes the builder holds: the row headers and every block its arenas
  /// have carved, in use or free. Arenas only grow until Seal, so read just
  /// before it this is the build's high-water. O(parts) per call.
  uint64_t StorageBytes() const;

  /// Encodes both sides into one owned RLSTORE3 blob and returns the store
  /// viewing it, releasing each side's arenas as soon as that side is
  /// encoded. Up to `threads` workers copy the rows, each into its place
  /// from the offsets computed first; the blob is the same for any count.
  /// Throws std::bad_alloc when the blob cannot be allocated, as a growing
  /// row would.
  LabelStore Seal(int threads = 1) &&;

 private:
  /// A row's keys: [keys, keys + size) of a block of `capacity` keys in
  /// its partition's arena for the side (null while capacity is 0).
  struct Row {
    uint32_t* keys = nullptr;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };

  /// One partition's keys of one side (label_store.cc).
  class RowArena;

  struct Side {
    std::vector<Row> rows;
    std::vector<RowArena> arenas;  // One per partition.
  };

  /// Keys of a row's first block (16 bytes). Starting at 1 or 2 keys costs
  /// one or two more moves per row. On the arxiv stand-in a first block of
  /// 8 keys left DL's append unchanged and raised its label storage by 7%
  /// (6.84 against 6.38 MB at 1 thread).
  static constexpr size_t kFirstRowCapacity = 4;

  void Insert(Side* side, Vertex v, uint32_t key) {
    Row& row = side->rows[v];
    if (row.size != 0 && row.size < row.capacity &&
        row.keys[row.size - 1] < key) {
      row.keys[row.size++] = key;
      return;
    }
    InsertSlow(side, v, key);
  }
  void InsertSlow(Side* side, Vertex v, uint32_t key);
  void Assign(Side* side, Vertex v, std::span<const uint32_t> keys);

  size_t parts_;
  Side out_;
  Side in_;
};

/// Shared LoadIndexMapped body of the labeling oracles: maps a snapshot
/// blob and cross-checks its vertex count against `dag`'s (`who` names the
/// oracle in error messages). Validation of the blob itself lives in
/// LabelStore::FromMapped.
StatusOr<LabelStore> MapLabelStoreFor(const Digraph& dag, MappedRegion region,
                                      const char* who);

}  // namespace reach

#endif  // REACH_CORE_LABEL_STORE_H_
