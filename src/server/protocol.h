// Wire protocol of reach_serve: newline-delimited text commands, designed
// so that a batch of queries costs one round trip.
//
//   Q u v            one reachability query    -> "1" | "0" | "ERR <why>"
//   BATCH n          n query lines "u v" follow -> n answer lines; past
//                    the batch limit, "ERR batch count ..." and then an
//                    ERR for each of the n lines
//   STATS            server/index statistics   -> "STATS", k/v lines, "END"
//   PING             liveness probe            -> "PONG"
//   RELOAD <path>    hot-swap onto the sealed index snapshot at <path>
//                    (same method + graph shape) -> "OK" | "ERR <why>"
//   SAVE <path>      atomically write the live index snapshot to <path>
//                    -> "OK" | "ERR <why>"
//   SHUTDOWN         graceful drain            -> "BYE", then close
//
// Lines end with LF (a trailing CR is stripped for telnet-style clients).
// Vertex ids use the strict decimal grammar of util/strict_parse.h. A
// malformed command answers "ERR <reason>" and the connection stays usable;
// only a line exceeding the length limit is protocol-fatal, because framing
// is lost. This header is socket-free: the parser and the incremental line
// splitter are plain functions over strings, unit-testable without a server
// (see src/server/session.h for the connection state machine).

#ifndef REACH_SERVER_PROTOCOL_H_
#define REACH_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "graph/digraph.h"

namespace reach {
namespace server {

/// Anti-abuse bounds applied while parsing untrusted connection bytes.
struct ProtocolLimits {
  /// Longest accepted request line; longer input closes the connection.
  size_t max_line_bytes = 4096;
  /// Largest accepted BATCH count; larger batches answer ERR (the client
  /// should split). Bounds per-connection response buffering.
  uint64_t max_batch = 1 << 20;
};

/// Start of the reason a BATCH header past ProtocolLimits::max_batch is
/// refused with: "batch count <n> exceeds limit <max>". The n lines that
/// follow the refused header are then parsed as commands, each answering
/// ERR, so the refusal is one reply more than the frame's n.
inline constexpr std::string_view kBatchLimitReason = "batch count ";

enum class CommandType {
  kQuery,      // Q u v
  kBatch,      // BATCH n
  kStats,      // STATS
  kPing,       // PING
  kReload,     // RELOAD <path>
  kSave,       // SAVE <path>
  kShutdown,   // SHUTDOWN
  kMalformed,  // Anything else; `error` says why.
};

/// One parsed request line.
struct Command {
  CommandType type = CommandType::kMalformed;
  Vertex u = 0;             // kQuery.
  Vertex v = 0;             // kQuery.
  uint64_t batch_count = 0; // kBatch.
  std::string path;         // kReload / kSave: one blank-free token.
  std::string error;        // kMalformed.
};

/// Parses one complete request line (terminator already stripped).
Command ParseCommandLine(std::string_view line, const ProtocolLimits& limits);

/// Parses a "u v" batch body line in one pass: blanks, a strict decimal
/// vertex id, at least one blank, a second id, blanks. Returns false on any
/// deviation, including an id above the Vertex range (the caller answers
/// ERR for that slot but keeps the batch frame aligned). Accepts exactly
/// the lines that two ParseVertexToken tokens would.
bool ParseQueryLine(std::string_view line, Vertex* u, Vertex* v);

/// Parses one vertex-id token under the wire grammar: strict decimal
/// (util/strict_parse.h) within the Vertex range. Shared by the parser and
/// the client tools so their validation cannot diverge.
bool ParseVertexToken(std::string_view token, Vertex* out);

/// Incremental LF splitter with a line-length cap, shared by the server
/// session and the client. Append raw bytes as they arrive; NextLine()
/// hands back complete lines (CR/LF stripped) in order, as views into the
/// buffer rather than copies.
class LineBuffer {
 public:
  explicit LineBuffer(size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  void Append(std::string_view bytes) { buffer_.append(bytes); }

  /// Next complete line, or nullopt when none is buffered. The view points
  /// into the buffer and stays valid until the next Append() or NextLine()
  /// call. Once a partial line exceeds the cap, overflowed() latches true
  /// and no further lines are produced — the stream's framing can no
  /// longer be trusted.
  std::optional<std::string_view> NextLine();

  bool overflowed() const { return overflowed_; }

  /// Bytes buffered but not yet returned (partial trailing line).
  size_t pending_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;  // Prefix of buffer_ already returned as lines.
  size_t max_line_bytes_;
  bool overflowed_ = false;
};

}  // namespace server
}  // namespace reach

#endif  // REACH_SERVER_PROTOCOL_H_
