// Index snapshot framing and atomic publication for the serving layer.
//
// A server snapshot file is a framing header — magic "RSNAPSH2", the
// oracle method name, and the graph's |V|/|E|, all cross-checked on load —
// followed by zero padding up to the next 64-byte file offset, then the
// oracle's own sealed SaveIndex blob (which carries its own magic and
// validation; see core/label_store.h). The header ties a snapshot to
// exactly one (method, graph) pair so a stale or foreign file can never be
// swapped under a live server. The padding puts the oracle payload on a
// 64-byte boundary: a MappedBlob's bytes are 64-byte aligned (mmap pages,
// or the aligned-alloc fallback), so every section offset inside the
// payload keeps the alignment the zero-copy readers require, and the
// payload start shares no cache line with the header.
//
// Publication is atomic: SaveIndexSnapshot writes to "<path>.tmp", flushes,
// and rename(2)s into place. A reader (a restarting server, or a live one
// handling RELOAD) therefore observes either the previous complete snapshot
// or the new complete snapshot — never a half-written file. Any failure
// removes the temporary and leaves whatever was at `path` untouched.

#ifndef REACH_SERVER_SNAPSHOT_H_
#define REACH_SERVER_SNAPSHOT_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "core/oracle.h"
#include "core/reachability.h"
#include "graph/digraph.h"
#include "util/status.h"

namespace reach {
namespace server {

/// Longest method name the framing accepts; the writer enforces the same
/// bound so it can never emit a header its own reader refuses.
constexpr uint32_t kSnapshotMaxMethodLen = 64;

/// The oracle payload starts at a multiple of this file offset. Matches
/// MappedBlob's allocation alignment, so payload-relative section offsets
/// are also blob-relative-aligned.
constexpr size_t kSnapshotPayloadAlignment = 64;

/// Total framed header size (fixed fields + method + zero pad) for a
/// method name of `method_len` bytes: the file offset where the oracle
/// payload begins.
constexpr size_t SnapshotHeaderBytes(size_t method_len) {
  const size_t raw = 8 + 4 + method_len + 8 + 8;
  return (raw + kSnapshotPayloadAlignment - 1) / kSnapshotPayloadAlignment *
         kSnapshotPayloadAlignment;
}

/// Writes the "RSNAPSH2" framing header, including the alignment pad. All-
/// or-nothing: an unrepresentable method (empty, or longer than
/// kSnapshotMaxMethodLen) is rejected with InvalidArgument before any byte
/// is emitted.
Status WriteSnapshotHeader(std::ostream& out, const std::string& method,
                           uint64_t vertices, uint64_t edges);

/// Validates the untrusted snapshot framing against what the caller is
/// about to serve: same method, same graph shape, all-zero pad. Leaves the
/// stream positioned at the oracle payload. The oracle blob that follows
/// revalidates its own structure (bounds, offsets, exact size).
Status ReadSnapshotHeader(std::istream& in, const std::string& method,
                          uint64_t vertices, uint64_t edges);

/// Writes header + the oracle's sealed index blob to `path` with atomic
/// publish semantics: the bytes go to "<path>.tmp" and are renamed into
/// place only after a successful flush. On any failure the temporary is
/// removed and the previous content of `path` (if any) is preserved, so a
/// crash or full disk can never leave a truncated snapshot that poisons
/// the next --load-index or RELOAD. The oracle must have been built or
/// loaded for the (method, vertices, edges) the header records.
Status SaveIndexSnapshot(const std::string& path, const std::string& method,
                         uint64_t vertices, uint64_t edges,
                         const ReachabilityOracle& oracle);

/// Shared --load-index / RELOAD body: opens the snapshot at `path`,
/// validates the framing against (method, graph), and returns a ready
/// index served straight out of the file's bytes
/// (ReachabilityIndex::LoadMapped) — an mmap where the platform has one,
/// else MappedBlob's whole-file read of the same bytes (still zero-parse).
/// An oracle without snapshot support fails NotSupported.
///
/// `mapped_out`, when non-null, reports whether the served index is backed
/// by an actual file mapping (false on the read fallback). The index
/// keeps its backing blob alive until the last reference drops, so a
/// RELOAD can retire a mapping while in-flight queries finish on it.
StatusOr<ReachabilityIndex> LoadIndexSnapshotFile(
    const std::string& path, const std::string& method, const Digraph& graph,
    std::unique_ptr<ReachabilityOracle> oracle,
    BuildStats* stats_out = nullptr, bool* mapped_out = nullptr);

}  // namespace server
}  // namespace reach

#endif  // REACH_SERVER_SNAPSHOT_H_
