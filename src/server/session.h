// Per-connection state machine of reach_serve, socket-free by design: raw
// bytes in, wire-format response bytes out. The TCP layer (server.h) feeds
// whatever recv() returns; tests feed arbitrary splits of a request stream
// and assert identical responses — partial lines, coalesced commands, and
// malformed input are all protocol concerns, not socket concerns.

#ifndef REACH_SERVER_SESSION_H_
#define REACH_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/reachability.h"
#include "server/protocol.h"
#include "util/sync.h"

namespace reach {
namespace server {

/// Monotonic service counters shared by all sessions of one server.
/// Plain atomics: increments are relaxed, STATS reads are snapshots.
/// The counters are disjoint by contract: a request line bumps `queries`
/// (it was answered "1"/"0") or `malformed` (it was answered "ERR"), never
/// both — so `queries` always means "reachability answers served".
/// `malformed` is the sum of the five err_* kinds; every ERR bumps exactly
/// one kind and `malformed` together.
struct ServerStats {
  std::atomic<uint64_t> connections{0};  // Accepted since start.
  std::atomic<uint64_t> queries{0};      // Answered queries ("1"/"0" sent).
  std::atomic<uint64_t> batches{0};      // BATCH frames started.
  std::atomic<uint64_t> reloads{0};      // Successful RELOAD index swaps.
  std::atomic<uint64_t> saves{0};        // Successful SAVE snapshots.
  std::atomic<uint64_t> malformed{0};    // ERR responses sent (all kinds).
  std::atomic<uint64_t> err_parse{0};    // Unparseable command or slot.
  std::atomic<uint64_t> err_range{0};    // Vertex id >= vertex count.
  std::atomic<uint64_t> err_line_overflow{0};  // Over-cap line; closes.
  std::atomic<uint64_t> err_reload{0};   // Refused RELOAD.
  std::atomic<uint64_t> err_save{0};     // Refused SAVE.
  // Load diagnostics of the most recent index publish (Start's build or
  // load, then refreshed by every successful RELOAD). STATS exports them
  // as load_ms / rss_kb / mmap so a client can watch a hot swap's cost
  // without scraping the server log.
  std::atomic<uint64_t> load_micros{0};  // Wall time to ready the index.
  std::atomic<uint64_t> rss_peak_kb{0};  // Peak RSS sampled after publish.
  std::atomic<uint64_t> load_mmap{0};    // 1: live index serves from mmap.
};

/// RCU-style publication slot for the live index. Readers take their own
/// shared_ptr reference per query, so Publish() can swap in a replacement
/// while in-flight queries finish on the old index; the old index is
/// destroyed when its last reference drops. Readers pay one uncontended
/// mutex acquisition (a pointer copy under the lock) per Acquire().
class IndexSlot {
 public:
  IndexSlot() = default;

  IndexSlot(const IndexSlot&) = delete;
  IndexSlot& operator=(const IndexSlot&) = delete;

  /// The currently published index. Never null once the owning server has
  /// published its first index (before accepting any connection).
  std::shared_ptr<const ReachabilityIndex> Acquire() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return index_;
  }

  /// Where Publish() destroys the index it replaces when no reader still
  /// holds it. A reader that does hold it drops the last reference itself
  /// when its query or frame ends, before it acquires `next`.
  enum class Retire {
    /// After the lock drops, so a destructor freeing a multi-GB heap label
    /// store never blocks readers.
    kAfterUnlock,
    /// Under the lock, before any reader can acquire `next`. Meant for a
    /// file-mapped index, whose unmapping is cheap: otherwise readers
    /// fault in `next`'s pages (whole large page-cache folios at a time)
    /// while the old mapping is still resident, and the peak RSS of a hot
    /// swap depends on thread timing.
    kBeforeReaders,
  };

  /// Installs `next` as the live index.
  void Publish(std::shared_ptr<const ReachabilityIndex> next,
               Retire retire = Retire::kAfterUnlock) EXCLUDES(mu_) {
    std::shared_ptr<const ReachabilityIndex> old;
    {
      MutexLock lock(mu_);
      old = std::exchange(index_, std::move(next));
      if (retire == Retire::kBeforeReaders) old.reset();
    }
  }

 private:
  /// Guards only the published pointer: Acquire copies it (one uncontended
  /// acquisition per query), Publish exchanges it. The pointed-to index is
  /// immutable, so the pointer is the entire shared state. Leaf mutex:
  /// never held across any other acquisition.
  mutable Mutex mu_;
  std::shared_ptr<const ReachabilityIndex> index_ GUARDED_BY(mu_);
};

/// Everything a session needs from its server, all owned elsewhere and
/// outliving every session: the live-index slot (const at query time,
/// swappable by RELOAD), the graph/build metadata reported by STATS, and
/// the shared counters.
struct SessionContext {
  const IndexSlot* index = nullptr;
  std::string method;
  size_t graph_vertices = 0;
  size_t graph_edges = 0;
  ServerStats* stats = nullptr;
  ProtocolLimits limits;
  /// Non-null when the oracle's ConcurrentQuerySafe() is false: sessions
  /// then hold this mutex across each frame's ReachableMany call. RELOAD
  /// never changes the method, so this choice is fixed at Start.
  Mutex* query_mutex = nullptr;
  /// Server hook behind the RELOAD verb: validate the snapshot at `path`
  /// and atomically publish it as the live index. Must return an error
  /// without disturbing the live index on any failure. Null (e.g. in
  /// session-level tests) answers ERR.
  std::function<Status(const std::string& path)> reload;
  /// Server hook behind the SAVE verb: atomically write the live index
  /// snapshot to `path` (tmp + rename; no partial file on failure).
  std::function<Status(const std::string& path)> save;
};

/// One connection's protocol state. Not thread-safe: the server runs each
/// session on exactly one worker at a time.
///
/// Every query runs through one slot executor (ExecuteSlots): a BATCH frame
/// buffers its n parsed slots until the frame is complete, and `Q u v` is a
/// frame of one slot. The executor acquires the live index once, answers
/// the parsed in-range slots with one ReachableMany call, writes the
/// answers and the other slots' ERR lines in arrival order, and adds each
/// counter (`queries`, err_parse, err_range) once per frame.
class Session {
 public:
  enum class State {
    kOpen,               // Keep reading.
    kShutdownRequested,  // Client sent SHUTDOWN; flush output, drain server.
    kClosed,             // Protocol-fatal (oversized line); close after flush.
  };

  explicit Session(const SessionContext* context)
      : context_(context), lines_(context->limits.max_line_bytes) {}

  /// Consumes raw connection bytes and appends response bytes to `*out`.
  /// Returns the session state after processing every complete line in the
  /// input; kOpen means "send *out, then keep receiving".
  State Feed(std::string_view bytes, std::string* out);

  State state() const { return state_; }

 private:
  /// One query slot of the pending frame. A slot that did not parse keeps
  /// its arrival position and answers ERR in place, so the response stays
  /// n lines for n queries; the range check runs in the executor.
  struct Slot {
    Vertex u = 0;
    Vertex v = 0;
    bool parsed = false;
  };

  void HandleLine(std::string_view line, std::string* out);
  void ExecuteSlots(std::string* out);
  void HandleReload(const std::string& path, std::string* out);
  void HandleSave(const std::string& path, std::string* out);
  void AppendStats(std::string* out) const;
  /// Adds `n` ERR responses of one kind: to `kind` and to `malformed`.
  void CountErrors(std::atomic<uint64_t>& kind, uint64_t n) const;

  const SessionContext* context_;
  LineBuffer lines_;
  State state_ = State::kOpen;
  uint64_t batch_remaining_ = 0;  // Body lines still expected.
  std::vector<Slot> slots_;       // Pending frame, arrival order.
  // ExecuteSlots' buffers, kept across frames: the answerable slots'
  // pairs, their answers, and the index's component pairs.
  std::vector<VertexPair> pairs_;
  std::vector<uint8_t> answers_;
  std::vector<VertexPair> components_;
};

}  // namespace server
}  // namespace reach

#endif  // REACH_SERVER_SESSION_H_
