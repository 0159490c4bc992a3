// Read-only file mapping with shared ownership: the zero-copy substrate of
// the index load path (docs/ARCHITECTURE.md, "Index load path").
//
// A MappedBlob owns one contiguous read-only byte region backed either by
// mmap(2) of a whole file (the fast path: load cost is O(pages touched),
// not O(file size)) or by an owned region — filled with one streaming
// read of the file (OpenOwned, or where the file cannot be mapped), or
// written in memory by an encoder (LabelBuilder::Seal builds its sealed
// labels this way) — callers never branch on which. The blob is
// handed around as shared_ptr<const MappedBlob>; consumers that point into
// the region (LabelStore's sealed labels) retain the shared_ptr, so the
// mapping stays alive until the last reader drops its reference. That is
// exactly the lifetime RELOAD needs: IndexSlot::Publish swaps the index
// while in-flight queries finish on the old one, and the old mapping is
// unmapped only when the last such query releases its index reference.
//
// Alignment: both backings start at a 64-byte-aligned address (mmap, of
// the file or of anonymous memory for an owned region, is page-aligned;
// without mmap an owned region is an aligned heap allocation), so any
// format whose sections are 8-byte aligned *relative to the blob start*
// can be reinterpreted in place as uint64_t/uint32_t arrays.
//
// Safety: all validation of a mapped format must check the region size
// BEFORE dereferencing — the region boundary is the file boundary, and
// reading past a mapped file's final page raises SIGBUS rather than
// returning garbage. (Truncation of the file by another process after
// Open() is outside this contract, as it is for every mmap consumer.)

#ifndef REACH_UTIL_MAPPED_BLOB_H_
#define REACH_UTIL_MAPPED_BLOB_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "util/status.h"

namespace reach {

/// `bytes` of fresh anonymous pages (mmap where the platform has it, else
/// a 64-byte-aligned heap allocation), or nullptr when the allocation
/// fails. Mapped pages bypass the malloc heap, so FreePages returns them to
/// the kernel instead of leaving them resident in a heap or a per-thread
/// arena.
std::byte* AllocatePages(size_t bytes);

/// Releases a region from AllocatePages (`bytes` as allocated). Null is a
/// no-op.
void FreePages(std::byte* data, size_t bytes);

/// One read-only byte region tied to a file; see header comment for the
/// ownership and alignment contract.
class MappedBlob {
 public:
  /// Maps `path` read-only (advising MADV_RANDOM: label lookups touch
  /// pages in query order, not file order). Falls back to reading the
  /// whole file into an owned region when the platform lacks mmap or the
  /// mapping fails; `mapped()` tells which backing was chosen.
  /// An empty file yields an empty region (size() == 0), not an error.
  static StatusOr<std::shared_ptr<const MappedBlob>> Open(
      const std::string& path);

  /// As Open, but never maps the file: always the streaming read into an
  /// owned region. The heap-read side of the owned/mapped load tests, and
  /// the documented escape hatch when a file mapping must not outlive fast
  /// process exit.
  static StatusOr<std::shared_ptr<const MappedBlob>> OpenOwned(
      const std::string& path);

  /// A fresh owned region of `size` bytes (anonymous mmap where the
  /// platform has it, else an aligned heap allocation), 64-byte aligned
  /// like every backing. `fill` writes the region once, before the blob is
  /// published read-only; its error, or ResourceExhausted when the
  /// allocation fails, is returned instead of the blob. `path` only names
  /// the blob (empty for an in-memory encoding).
  static StatusOr<std::shared_ptr<const MappedBlob>> CreateOwned(
      size_t size, const std::function<Status(std::span<std::byte>)>& fill,
      std::string path = {});

  ~MappedBlob();

  MappedBlob(const MappedBlob&) = delete;
  MappedBlob& operator=(const MappedBlob&) = delete;

  /// The whole region. Valid for the blob's lifetime; 64-byte aligned.
  std::span<const std::byte> bytes() const { return {data_, size_}; }
  size_t size() const { return size_; }

  /// True when the region is an mmap of the file (zero-copy), false when
  /// it is an owned region (read fallback, OpenOwned or CreateOwned).
  bool mapped() const { return mapped_; }

  const std::string& path() const { return path_; }

  /// True when this platform can mmap at all (compile-time fact; Open may
  /// still fall back per-file at runtime).
  static bool PlatformSupportsMmap();

 private:
  MappedBlob() = default;

  static StatusOr<std::shared_ptr<const MappedBlob>> ReadWholeFile(
      const std::string& path);
  static StatusOr<std::shared_ptr<const MappedBlob>> MapWholeFile(
      const std::string& path);

  const std::byte* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::string path_;
};

/// A window into a MappedBlob: the blob shared_ptr (lifetime) plus the
/// offset of the window start. Sub-format readers take a MappedRegion,
/// validate their section, and pass the tail on via Subregion — each
/// keeping the same keepalive. A default-constructed region is empty.
struct MappedRegion {
  std::shared_ptr<const MappedBlob> blob;
  size_t offset = 0;

  /// Bytes from `offset` to the end of the blob. Empty when blob is null
  /// or offset is past the end.
  std::span<const std::byte> bytes() const {
    if (blob == nullptr || offset > blob->size()) return {};
    return blob->bytes().subspan(offset);
  }

  /// The region starting `advance` bytes further in. Shares the blob.
  MappedRegion Subregion(size_t advance) const {
    return MappedRegion{blob, offset + advance};
  }
};

}  // namespace reach

#endif  // REACH_UTIL_MAPPED_BLOB_H_
