#include "server/protocol.h"

#include <charconv>
#include <limits>
#include <system_error>

#include "util/strict_parse.h"

namespace reach {
namespace server {

namespace {

bool IsBlank(char c) { return c == ' ' || c == '\t'; }

const char* SkipBlanks(const char* p, const char* end) {
  while (p != end && IsBlank(*p)) ++p;
  return p;
}

/// Splits `line` into blank-separated tokens; returns false when there are
/// more than `max_tokens` (the caller rejects trailing garbage explicitly,
/// mirroring the strict edge-list parser in graph/graph_io.cc).
bool Tokenize(std::string_view line, std::string_view* tokens,
              size_t max_tokens, size_t* count) {
  *count = 0;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && IsBlank(line[i])) ++i;
    if (i >= line.size()) break;
    const size_t start = i;
    while (i < line.size() && !IsBlank(line[i])) ++i;
    if (*count == max_tokens) return false;
    tokens[(*count)++] = line.substr(start, i - start);
  }
  return true;
}

Command Malformed(std::string why) {
  Command command;
  command.type = CommandType::kMalformed;
  command.error = std::move(why);
  return command;
}

}  // namespace

bool ParseVertexToken(std::string_view token, Vertex* out) {
  uint64_t value = 0;
  if (!ParseDecimalUint64(token, &value) ||
      value > std::numeric_limits<Vertex>::max()) {
    return false;
  }
  *out = static_cast<Vertex>(value);
  return true;
}

bool ParseQueryLine(std::string_view line, Vertex* u, Vertex* v) {
  // blank* digits blank+ digits blank*. std::from_chars into Vertex takes
  // no sign, blank or base prefix and rejects ids above the Vertex range
  // (2^64 overflow included). It also consumes every digit, so the second
  // call can only succeed after at least one blank.
  const char* const end = line.data() + line.size();
  const auto first = std::from_chars(SkipBlanks(line.data(), end), end, *u);
  if (first.ec != std::errc()) return false;
  const auto second = std::from_chars(SkipBlanks(first.ptr, end), end, *v);
  return second.ec == std::errc() && SkipBlanks(second.ptr, end) == end;
}

Command ParseCommandLine(std::string_view line,
                         const ProtocolLimits& limits) {
  std::string_view tokens[3];
  size_t count = 0;
  if (!Tokenize(line, tokens, 3, &count)) {
    return Malformed("too many tokens");
  }
  if (count == 0) return Malformed("empty command");
  const std::string_view verb = tokens[0];

  Command command;
  if (verb == "Q") {
    if (count != 3 || !ParseVertexToken(tokens[1], &command.u) ||
        !ParseVertexToken(tokens[2], &command.v)) {
      return Malformed("Q expects two decimal vertex ids: 'Q u v'");
    }
    command.type = CommandType::kQuery;
    return command;
  }
  if (verb == "BATCH") {
    uint64_t n = 0;
    if (count != 2 || !ParseDecimalUint64(tokens[1], &n)) {
      return Malformed("BATCH expects one decimal count: 'BATCH n'");
    }
    if (n > limits.max_batch) {
      return Malformed("batch count " + std::string(tokens[1]) +
                       " exceeds limit " + std::to_string(limits.max_batch));
    }
    command.type = CommandType::kBatch;
    command.batch_count = n;
    return command;
  }
  if (verb == "RELOAD" || verb == "SAVE") {
    // The path is one blank-free token; blanks in a path would need
    // quoting the line grammar deliberately does not have.
    if (count != 2) {
      return Malformed(std::string(verb) + " expects one path: '" +
                       std::string(verb) + " <snapshot-path>'");
    }
    command.type =
        verb == "RELOAD" ? CommandType::kReload : CommandType::kSave;
    command.path = std::string(tokens[1]);
    return command;
  }
  if (verb == "STATS" || verb == "PING" || verb == "SHUTDOWN") {
    if (count != 1) {
      return Malformed(std::string(verb) + " takes no arguments");
    }
    command.type = verb == "STATS"   ? CommandType::kStats
                   : verb == "PING" ? CommandType::kPing
                                    : CommandType::kShutdown;
    return command;
  }
  return Malformed("unknown command '" + std::string(verb) +
                   "'; expected Q, BATCH, STATS, PING, RELOAD, SAVE, or "
                   "SHUTDOWN");
}

std::optional<std::string_view> LineBuffer::NextLine() {
  if (overflowed_) return std::nullopt;
  const size_t newline = buffer_.find('\n', consumed_);
  if (newline == std::string::npos) {
    if (buffer_.size() - consumed_ > max_line_bytes_) overflowed_ = true;
    // Drop the already-consumed prefix so a long-lived connection does not
    // accumulate every line it ever sent.
    if (consumed_ > 0) {
      buffer_.erase(0, consumed_);
      consumed_ = 0;
    }
    return std::nullopt;
  }
  if (newline - consumed_ > max_line_bytes_) {
    overflowed_ = true;
    return std::nullopt;
  }
  size_t end = newline;
  if (end > consumed_ && buffer_[end - 1] == '\r') --end;
  const std::string_view line(buffer_.data() + consumed_, end - consumed_);
  consumed_ = newline + 1;
  return line;
}

}  // namespace server
}  // namespace reach
