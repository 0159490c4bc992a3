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
//   per-vertex              encodes both        offsets[] + keys[] CSR:
//   std::vector rows,       sides into one      one contiguous array per
//   insert/mutate API       blob and frees      side, per-vertex spans,
//   (construction mutates   the builder's       exact MemoryBytes(),
//   labels constantly)      rows                cache-friendly queries
//
// Construction algorithms fill a LabelBuilder (they interleave reads and
// inserts); BuildIndex seals it once the labeling is final, so every query
// after a successful Build touches two contiguous spans instead of chasing
// two heap-scattered vectors. The paper's labelings are built once and
// then only queried, so a sealed store never goes back to rows: LabelStore
// has no member that changes a label.
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

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "util/mapped_blob.h"
#include "util/sorted_ops.h"
#include "util/status.h"

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
class LabelBuilder {
 public:
  explicit LabelBuilder(size_t num_vertices)
      : out_(num_vertices), in_(num_vertices) {}

  size_t num_vertices() const { return out_.size(); }

  std::vector<uint32_t>* MutableOut(Vertex v) { return &out_[v]; }
  std::vector<uint32_t>* MutableIn(Vertex v) { return &in_[v]; }

  /// Inserts a key keeping the label sorted; a key above the row's back is
  /// an O(1) append (SortedInsert). A row's first insert reserves
  /// kFirstRowCapacity keys.
  void InsertOut(Vertex v, uint32_t key) { InsertKey(&out_[v], key); }
  void InsertIn(Vertex v, uint32_t key) { InsertKey(&in_[v], key); }

  std::span<const uint32_t> Out(Vertex v) const { return out_[v]; }
  std::span<const uint32_t> In(Vertex v) const { return in_[v]; }

  /// Total number of label entries, the sealed store's TotalEntries().
  uint64_t TotalEntries() const;

  /// Encodes both sides into one owned RLSTORE3 blob and returns the store
  /// viewing it, freeing each side's rows as soon as that side is encoded.
  /// Up to `threads` workers copy the rows, each into its place from the
  /// offsets computed first; the blob is the same for any count. Throws
  /// std::bad_alloc when the blob cannot be allocated, as the rows would.
  LabelStore Seal(int threads = 1) &&;

 private:
  /// 24 bytes: the payload of the smallest heap chunk on 64-bit glibc,
  /// which a row of one or two keys occupies anyway. Growing 1, 2, 4, 8
  /// instead cost two more reallocations per row; on the arxiv stand-in
  /// reserving this first took 12-18% off DL's label append at 1 and 4
  /// threads (4-vCPU x86-64 VM).
  static constexpr size_t kFirstRowCapacity = 6;

  static void InsertKey(std::vector<uint32_t>* row, uint32_t key) {
    if (row->capacity() == 0) row->reserve(kFirstRowCapacity);
    SortedInsert(row, key);
  }

  std::vector<std::vector<uint32_t>> out_;
  std::vector<std::vector<uint32_t>> in_;
};

/// Shared LoadIndexMapped body of the labeling oracles: maps a snapshot
/// blob and cross-checks its vertex count against `dag`'s (`who` names the
/// oracle in error messages). Validation of the blob itself lives in
/// LabelStore::FromMapped.
StatusOr<LabelStore> MapLabelStoreFor(const Digraph& dag, MappedRegion region,
                                      const char* who);

}  // namespace reach

#endif  // REACH_CORE_LABEL_STORE_H_
