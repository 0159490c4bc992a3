#include "server/snapshot.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <utility>

#include "util/mapped_blob.h"
#include "util/span_stream.h"

namespace reach {
namespace server {

namespace {

// "RSNAPSH2" as a little-endian u64. Version 2 (this PR) appends the
// 64-byte alignment pad after the fixed fields so the oracle payload can
// be served zero-copy out of a mapping; version 1 files are rejected by
// the magic check and must be re-saved.
constexpr uint64_t kSnapshotMagic = 0x52534e4150534832ULL;

}  // namespace

Status WriteSnapshotHeader(std::ostream& out, const std::string& method,
                           uint64_t vertices, uint64_t edges) {
  // Writer-side mirror of the reader's bounds: a header the hardened
  // reader would refuse must never be produced in the first place.
  if (method.empty() || method.size() > kSnapshotMaxMethodLen) {
    return Status::InvalidArgument(
        "snapshot method name must be 1.." +
        std::to_string(kSnapshotMaxMethodLen) + " bytes, got " +
        std::to_string(method.size()));
  }
  const uint64_t magic = kSnapshotMagic;
  const uint32_t method_len = static_cast<uint32_t>(method.size());
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&method_len), sizeof(method_len));
  out.write(method.data(), method_len);
  out.write(reinterpret_cast<const char*>(&vertices), sizeof(vertices));
  out.write(reinterpret_cast<const char*>(&edges), sizeof(edges));
  const size_t raw = 8 + 4 + method.size() + 8 + 8;
  const char pad[kSnapshotPayloadAlignment] = {};
  out.write(pad, static_cast<std::streamsize>(
                     SnapshotHeaderBytes(method.size()) - raw));
  if (!out) return Status::IOError("snapshot header write failed");
  return Status::OK();
}

Status ReadSnapshotHeader(std::istream& in, const std::string& method,
                          uint64_t vertices, uint64_t edges) {
  uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in || magic != kSnapshotMagic) {
    return Status::Corruption("bad index snapshot magic");
  }
  uint32_t method_len = 0;
  in.read(reinterpret_cast<char*>(&method_len), sizeof(method_len));
  if (!in || method_len == 0 || method_len > kSnapshotMaxMethodLen) {
    return Status::Corruption("bad index snapshot method length");
  }
  std::string saved_method(method_len, '\0');
  in.read(saved_method.data(), method_len);
  if (!in) return Status::Corruption("truncated index snapshot header");
  if (saved_method != method) {
    return Status::InvalidArgument("index snapshot was saved for method '" +
                                   saved_method + "', server is running '" +
                                   method + "'");
  }
  uint64_t saved_vertices = 0;
  uint64_t saved_edges = 0;
  in.read(reinterpret_cast<char*>(&saved_vertices), sizeof(saved_vertices));
  in.read(reinterpret_cast<char*>(&saved_edges), sizeof(saved_edges));
  if (!in) return Status::Corruption("truncated index snapshot header");
  if (saved_vertices != vertices || saved_edges != edges) {
    return Status::InvalidArgument(
        "index snapshot was saved for a graph with " +
        std::to_string(saved_vertices) + " vertices / " +
        std::to_string(saved_edges) + " edges; the served graph has " +
        std::to_string(vertices) + " / " + std::to_string(edges));
  }
  const size_t raw = 8 + 4 + method_len + 8 + 8;
  char pad[kSnapshotPayloadAlignment] = {};
  const size_t pad_len = SnapshotHeaderBytes(method_len) - raw;
  in.read(pad, static_cast<std::streamsize>(pad_len));
  if (!in) return Status::Corruption("truncated index snapshot header");
  if (!std::all_of(pad, pad + pad_len, [](char c) { return c == 0; })) {
    return Status::Corruption("index snapshot header pad is not zero");
  }
  return Status::OK();
}

Status SaveIndexSnapshot(const std::string& path, const std::string& method,
                         uint64_t vertices, uint64_t edges,
                         const ReachabilityOracle& oracle) {
  const std::string tmp = path + ".tmp";
  Status status = Status::OK();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("cannot create index snapshot temporary " +
                             tmp);
    }
    status = WriteSnapshotHeader(out, method, vertices, edges);
    if (status.ok()) status = oracle.SaveIndex(out);
    if (status.ok()) {
      out.flush();
      if (!out) {
        status = Status::IOError("index snapshot write to " + tmp +
                                 " failed");
      }
    }
  }
  if (!status.ok()) {
    // A failed write must leave no partial file behind: the previous
    // snapshot at `path` (if any) stays the published one.
    std::remove(tmp.c_str());
    return status;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::IOError("rename " + tmp + " -> " + path + ": " +
                             std::strerror(errno));
    std::remove(tmp.c_str());
    return status;
  }
  return Status::OK();
}

StatusOr<ReachabilityIndex> LoadIndexSnapshotFile(
    const std::string& path, const std::string& method, const Digraph& graph,
    std::unique_ptr<ReachabilityOracle> oracle, BuildStats* stats_out,
    bool* mapped_out) {
  if (mapped_out != nullptr) *mapped_out = false;
  if (oracle == nullptr) {
    return Status::InvalidArgument("oracle must not be null");
  }
  // Zero-copy path (or MappedBlob's whole-file read fallback where the
  // file cannot be mapped). The framing is validated through a stream view of the
  // blob, which doubles as the "never read past the mapping" guard: a
  // header running off a truncated file fails the stream reads instead of
  // faulting.
  StatusOr<std::shared_ptr<const MappedBlob>> blob = MappedBlob::Open(path);
  if (!blob.ok()) return blob.status();
  SpanIStream header((*blob)->bytes());
  REACH_RETURN_IF_ERROR(ReadSnapshotHeader(header, method,
                                           graph.num_vertices(),
                                           graph.num_edges()));
  if (mapped_out != nullptr) *mapped_out = (*blob)->mapped();
  MappedRegion region{*blob, SnapshotHeaderBytes(method.size())};
  return ReachabilityIndex::LoadMapped(graph, std::move(oracle),
                                       std::move(region), stats_out);
}

}  // namespace server
}  // namespace reach
