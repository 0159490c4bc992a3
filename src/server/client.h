// Minimal blocking client for the reach_serve wire protocol, used by the
// loopback tests, the perfbench workload driver, and tools/reach_client. One
// Client is one TCP connection; it is not thread-safe (one request/response
// exchange at a time), but any number of Clients may talk to one server
// concurrently.

#ifndef REACH_SERVER_CLIENT_H_
#define REACH_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "server/protocol.h"
#include "util/status.h"

namespace reach {
namespace server {

class Client {
 public:
  Client() : lines_(kResponseLineLimit) {}
  ~Client() { Close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// Sends raw protocol bytes as-is (tests use this to exercise malformed
  /// and partial input).
  Status SendRaw(std::string_view bytes);

  /// Reads the next LF-terminated response line (CR stripped).
  StatusOr<std::string> ReadLine();

  /// One "Q u v" round trip; returns the raw answer line ("1"/"0"/ERR).
  StatusOr<std::string> Query(Vertex u, Vertex v);

  /// One "BATCH n" frame: sends every query in one write, reads exactly
  /// queries.size() answer lines. The cheap way to amortize round trips.
  StatusOr<std::vector<std::string>> Batch(
      const std::vector<std::pair<Vertex, Vertex>>& queries);

  /// STATS round trip: the "key value" lines between STATS and END.
  StatusOr<std::vector<std::string>> Stats();

  /// RELOAD round trip: asks the server to hot-swap onto the sealed index
  /// snapshot at `path` (a server-side path, one blank-free token).
  /// Returns the raw answer line: "OK" on a successful swap, "ERR <why>"
  /// when the server refused (live index untouched).
  StatusOr<std::string> Reload(const std::string& path);

  /// SAVE round trip: asks the server to atomically write its live index
  /// snapshot to `path`. Returns "OK" or "ERR <why>".
  StatusOr<std::string> Save(const std::string& path);

  /// SHUTDOWN round trip; returns the server's farewell line ("BYE").
  StatusOr<std::string> Shutdown();

 private:
  // Server response lines are short ("1", ERR reasons, stats rows); a limit
  // far above any legal line keeps a misbehaving peer from ballooning the
  // read buffer.
  static constexpr size_t kResponseLineLimit = 1 << 16;

  int fd_ = -1;
  LineBuffer lines_;
};

}  // namespace server
}  // namespace reach

#endif  // REACH_SERVER_CLIENT_H_
