// Two-phase hop-label storage (reachability oracle labels): per-vertex
// Lout/Lin sets of 32-bit keys. A query u -> v is a sorted-array
// intersection test (util/sorted_ops.h) — the paper (Section 1) points out
// that storing labels in sorted arrays rather than sets removes the
// query-time gap earlier studies reported for 2-hop labelings.
//
// Lifecycle:
//
//   build phase              Seal()              sealed phase
//   ───────────              ──────              ────────────
//   per-vertex               encodes both        offsets[] + keys[] CSR:
//   std::vector labels,      sides into one      one contiguous array per
//   append/insert API        blob and frees      side, per-vertex spans,
//   (construction mutates    the build           exact MemoryBytes(),
//   labels constantly)       vectors             cache-friendly queries
//
// Construction algorithms run in the build phase (they interleave reads
// and inserts); BuildIndex seals once the labeling is final, so every
// query after a successful Build touches two contiguous spans instead of
// chasing two heap-scattered vectors. Unseal() expands back for the
// dynamic oracle's incremental patches. Queries work in either phase and
// answer identically.
//
// The sealed form has exactly one representation: an RLSTORE3 blob (the
// snapshot format, see Write) held in a MappedBlob, with the read surface
// pointing into it. Seal() encodes the build vectors into an owned blob
// (MappedBlob::CreateOwned); FromMapped points into a blob holding a
// snapshot — an mmap of the file (the zero-copy load path: the file's
// bytes ARE the index, no parse-and-copy) or the file read into memory
// (MappedBlob::OpenOwned). Either way the store retains the blob
// shared_ptr, so the bytes outlive every span handed out while the store
// lives, and a copy of a sealed store shares the immutable blob. Unseal()
// copies the labels out and drops it.
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

#include <cassert>
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

/// Two-sided hop labeling over a fixed vertex set; see header comment for
/// the build/sealed lifecycle and the single sealed representation.
class LabelStore {
 public:
  LabelStore() = default;
  explicit LabelStore(size_t num_vertices) { Init(num_vertices); }

  /// Resets to an empty build-phase store over `num_vertices` vertices.
  void Init(size_t num_vertices);

  size_t num_vertices() const { return num_vertices_; }
  bool sealed() const { return sealed_; }

  /// True when the sealed labels are an mmap of a snapshot file rather
  /// than an owned region (Seal, or a file read into memory).
  bool mapped() const {
    return region_.blob != nullptr && region_.blob->mapped();
  }

  // --- Build-phase mutation (requires !sealed()). -------------------------

  std::vector<uint32_t>* MutableOut(Vertex v) {
    assert(!sealed_);
    return &build_out_[v];
  }
  std::vector<uint32_t>* MutableIn(Vertex v) {
    assert(!sealed_);
    return &build_in_[v];
  }

  /// Inserts a key keeping the label sorted; a key above the row's back is
  /// an O(1) append (SortedInsert). A row's first insert reserves
  /// kFirstRowCapacity keys.
  void InsertOut(Vertex v, uint32_t key) {
    assert(!sealed_);
    InsertKey(&build_out_[v], key);
  }
  void InsertIn(Vertex v, uint32_t key) {
    assert(!sealed_);
    InsertKey(&build_in_[v], key);
  }

  /// Sorts and deduplicates every label (for algorithms that bulk-append).
  void Canonicalize();

  // --- Phase transitions. -------------------------------------------------

  /// Encodes both sides into one owned RLSTORE3 blob and points the read
  /// surface into it, freeing each side's build vectors as soon as that
  /// side is encoded. Up to `threads` workers copy the rows, each into its
  /// place from the offsets computed first; the blob is the same for any
  /// count. Queries and every read-only accessor keep answering
  /// identically. Idempotent. Throws std::bad_alloc when the blob cannot
  /// be allocated, as the build vectors would.
  void Seal(int threads = 1);

  /// Expands the sealed labels back into per-vertex vectors so the
  /// mutation API works again (dynamic labeling's incremental patches),
  /// and releases the blob reference. Idempotent.
  void Unseal();

  // --- Reads (either phase). ----------------------------------------------

  std::span<const uint32_t> Out(Vertex v) const {
    if (sealed_) {
      return {key_out_ + off_out_[v],
              static_cast<size_t>(off_out_[v + 1] - off_out_[v])};
    }
    return build_out_[v];
  }
  std::span<const uint32_t> In(Vertex v) const {
    if (sealed_) {
      return {key_in_ + off_in_[v],
              static_cast<size_t>(off_in_[v + 1] - off_in_[v])};
    }
    return build_in_[v];
  }

  /// True iff Lout(u) and Lin(v) share a hop (adaptive intersection).
  bool Query(Vertex u, Vertex v) const {
    if (sealed_) {
      return SortedIntersects(
          {key_out_ + off_out_[u],
           static_cast<size_t>(off_out_[u + 1] - off_out_[u])},
          {key_in_ + off_in_[v],
           static_cast<size_t>(off_in_[v + 1] - off_in_[v])});
    }
    return SortedIntersects(build_out_[u], build_in_[v]);
  }

  /// Total number of stored label entries, i.e. the paper's "index size in
  /// number of integers" metric (Figures 3 and 4).
  uint64_t TotalEntries() const;

  /// Largest |Lout(v)| + |Lin(v)| over all vertices.
  size_t MaxLabelSize() const;

  /// Footprint of the label arrays. Exact in the sealed phase: offsets +
  /// keys, no headers or slack. For a mapped store this counts the bytes
  /// addressed through the view, though only the touched pages are ever
  /// resident. In the build phase an estimate including vector headers
  /// and capacity.
  size_t MemoryBytes() const;

  /// Binary serialization ("RLSTORE3", local-endian): one write of the
  /// sealed blob's bytes. An unsealed store writes the same bytes through
  /// the same encoder Seal uses.
  ///
  /// Layout, all sections 8-byte aligned relative to the blob start:
  ///   u64 magic, u64 n, u64 total_out, u64 total_in
  ///   u64 offsets_out[n + 1]
  ///   u32 keys_out[total_out], zero-padded to 8
  ///   u64 offsets_in[n + 1]
  ///   u32 keys_in[total_in], zero-padded to 8
  Status Write(std::ostream& out) const;

  /// The one load path: the sealed arrays point into `region` (which must
  /// start 8-byte aligned within its 64-aligned blob and extend exactly to
  /// the blob's end — the label blob is always a snapshot's final
  /// section). Validates header arithmetic, the full offsets arrays and
  /// the zero padding against the region size BEFORE dereferencing any
  /// array section, so a truncated or forged file is rejected without
  /// ever touching bytes past the mapping (no SIGBUS). Key values are not
  /// validated — see the header comment and Validate(). The returned
  /// store retains region.blob.
  static StatusOr<LabelStore> FromMapped(MappedRegion region);

  /// Full scan of the key values, in either phase: every key below n and
  /// every label strictly ascending; a sealed store's padding is
  /// re-checked as zero. Corruption names the side and row at fault.
  /// O(index size), and on a mapped store it faults in every page.
  Status Validate() const;

  /// Logical equality: same vertex count and per-vertex labels, regardless
  /// of phase or backing (a sealed store equals its unsealed twin).
  bool operator==(const LabelStore& other) const;

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

  /// Points the sealed read surface into `region`, whose header and sizes
  /// the encoder produced or FromMapped checked, and retains its blob.
  void Attach(MappedRegion region);

  size_t num_vertices_ = 0;
  bool sealed_ = false;
  // Build phase.
  std::vector<std::vector<uint32_t>> build_out_;
  std::vector<std::vector<uint32_t>> build_in_;
  // Sealed phase: keys of vertex v occupy key_xxx_[off_xxx_[v] ..
  // off_xxx_[v + 1]), all pointing into region_. Null in the build phase.
  const uint64_t* off_out_ = nullptr;
  const uint64_t* off_in_ = nullptr;
  const uint32_t* key_out_ = nullptr;
  const uint32_t* key_in_ = nullptr;
  // The sealed blob (and the label section's offset in it); empty in the
  // build phase.
  MappedRegion region_;
};

/// Shared LoadIndexMapped body of the labeling oracles: maps a snapshot
/// blob and cross-checks its vertex count against `dag`'s (`who` names the
/// oracle in error messages). Validation of the blob itself lives in
/// LabelStore::FromMapped.
StatusOr<LabelStore> MapLabelStoreFor(const Digraph& dag, MappedRegion region,
                                      const char* who);

}  // namespace reach

#endif  // REACH_CORE_LABEL_STORE_H_
