// Long-lived reachability oracle server: pays the index construction cost
// once, then answers batched queries over loopback/TCP until a client sends
// SHUTDOWN (or Stop() is called). This is the serving layer of the ROADMAP:
// the index amortizes across millions of requests instead of one process
// per query batch.
//
// Concurrency model:
//  - Start() builds the oracle synchronously (SCC condensation + BuildIndex
//    with BuildOptions.threads workers), binds, then starts
//    `options.workers` handler threads that the server owns.
//  - Each handler thread polls the listener, accepts a connection and
//    serves it (recv -> Session::Feed -> send) until EOF, a protocol-fatal
//    error, or drain, then accepts the next. Each recv first polls the
//    socket for a short fixed window, yielding the CPU between polls, and
//    only then blocks: a client that sends its next request within the
//    window is answered without a thread wake-up. A handler whose polls
//    keep ending without a request (a slow client, or yields that hand
//    the CPU to other threads) mostly blocks at once. So up to
//    `options.workers` connections are served concurrently; later ones
//    wait in the kernel's listen backlog. The handlers are not the
//    parallel runtime's helpers (util/thread_pool.h): a build in the same
//    process keeps its helpers however many connections are open.
//  - Queries on the built index are const and lock-free for oracles whose
//    ConcurrentQuerySafe() is true; otherwise every session shares one
//    query mutex (core/oracle.h).
//  - The live index is published through an IndexSlot (session.h): each
//    query pins its own shared_ptr reference, so the RELOAD verb can swap
//    in a freshly loaded snapshot while in-flight queries finish on the
//    old index (retired when its last reference drops). A failed RELOAD
//    or SAVE never disturbs the live index.
//
// Graceful drain: on SHUTDOWN the handlers stop accepting, every open
// connection is shut down for reading (already-received commands are still
// answered and flushed), the last handler to stop closes the listener, and
// Wait() returns once every handler has stopped. Stop() and the destructor
// join the handler threads.

#ifndef REACH_SERVER_SERVER_H_
#define REACH_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/reachability.h"
#include "graph/digraph.h"
#include "server/session.h"
#include "util/status.h"
#include "util/sync.h"

namespace reach {
namespace server {

struct ServerOptions {
  /// Bind address. The default serves loopback only; binding a routable
  /// address is an explicit opt-in because the protocol is unauthenticated.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Connections served concurrently: the number of handler threads the
  /// server starts, each serving one connection at a time.
  int workers = 4;
  /// Oracle registry name (baselines/factory.h).
  std::string method = "DL";
  /// Construction threads (BuildOptions::threads; 0 = REACH_THREADS env,
  /// else hardware concurrency). Build-time only, never changes answers.
  int build_threads = 0;
  /// Construction budget (core/oracle.h); default unlimited. The serve
  /// benchmark uses this to reproduce "--" (did-not-finish) cells.
  BuildBudget budget;
  /// Non-empty: after a successful build, write the index snapshot (framed
  /// header + the oracle's sealed SaveIndex blob) to this path, so a later
  /// Start with load_index_path skips construction entirely. The write is
  /// published atomically (tmp + rename, server/snapshot.h): a failure
  /// leaves no partial file. Requires a registry method whose oracle
  /// SupportsSnapshot() (DL, HL, TF, 2HOP).
  std::string save_index_path;
  /// Non-empty: restore the index from this snapshot instead of building
  /// it (restart-without-rebuild). The snapshot must have been saved for
  /// the same method and graph; any mismatch fails Start. Mutually
  /// exclusive with save_index_path.
  std::string load_index_path;
  /// Wrap the oracle in the O(1) pre-filter tier (core/prefilter.h): most
  /// queries are answered from one packed screening record per endpoint
  /// without touching the wrapped index, answers are bit-identical either
  /// way, and STATS gains per-stage hit counters. A prefilter server's
  /// snapshots carry the screening columns in front of the oracle blob, so
  /// only a prefilter server loads them (and it loads no bare snapshot).
  bool prefilter = false;
  /// Optional human-readable event sink (reach_serve points it at stderr):
  /// receives one line per index publish — the Start load and every
  /// successful RELOAD — with load wall time, peak RSS, and serving mode.
  /// Called from whatever thread performs the publish; must be internally
  /// synchronized if it writes shared state. Null: silent.
  std::function<void(const std::string& line)> info_log;
  ProtocolLimits limits;
};

/// One server = one graph + one built oracle + one listener.
///
/// Lifecycle: Start() exactly once; then Wait() (blocks until a client's
/// SHUTDOWN drains the server) or Stop() (initiates the same drain locally
/// and waits). The destructor calls Stop(). Not copyable or movable.
class ReachServer {
 public:
  ReachServer();
  ~ReachServer();

  ReachServer(const ReachServer&) = delete;
  ReachServer& operator=(const ReachServer&) = delete;

  /// Builds `options.method` on `graph` (cycles fine: SCC-condensed first),
  /// binds `host:port`, and starts accepting. On any failure nothing is
  /// left running and Start may not be retried. `graph` must outlive the
  /// server: the RELOAD verb recomputes the SCC condensation from it when
  /// validating and loading a replacement snapshot.
  Status Start(const Digraph& graph, const ServerOptions& options);

  /// The bound TCP port (the actual one when options.port was 0).
  uint16_t port() const { return port_; }

  /// Construction outcome of the oracle build attempt; valid after Start
  /// returns, even when the build itself failed (budget exceeded). After a
  /// snapshot load, build_millis is the load time.
  const BuildStats& build_stats() const { return build_stats_; }

  /// True when Start restored the index from options.load_index_path
  /// instead of constructing it.
  bool loaded_from_snapshot() const { return loaded_from_snapshot_; }

  /// True when the index Start published serves zero-copy from a file
  /// mapping (LoadIndexSnapshotFile's capability matrix picked mmap).
  /// False on the build path and on every fallback row.
  bool loaded_mmap() const { return loaded_mmap_; }

  /// Live service counters (shared with every session).
  const ServerStats& stats() const { return stats_; }

  /// The currently published index; valid after a successful Start. The
  /// returned reference keeps that index alive even across a concurrent
  /// RELOAD (which publishes a replacement without invalidating holders).
  std::shared_ptr<const ReachabilityIndex> index() const {
    return index_slot_.Acquire();
  }

  /// Blocks until the server has drained (SHUTDOWN command, Stop(), or
  /// RequestStopFromSignal: the calling thread starts that drain itself
  /// when every handler is busy serving).
  void Wait() EXCLUDES(mu_);

  /// Initiates a graceful drain and waits for it to finish. Idempotent;
  /// safe to call even if a client's SHUTDOWN already started the drain.
  void Stop() EXCLUDES(mu_);

  /// Async-signal-safe drain trigger: only calls write(2) on a self-pipe
  /// whose descriptor stays valid from Start() until destruction, so a
  /// signal can never race a handler into touching a recycled fd. A
  /// handler polling for connections, or a thread blocked in Wait(), wakes
  /// and runs the normal drain path. For use in SIGINT/SIGTERM handlers;
  /// the handler must be unregistered (or g_server cleared) before the
  /// server is destroyed.
  void RequestStopFromSignal();

 private:
  /// Body of each handler thread: accept a connection, serve it, repeat
  /// until the wake pipe or a listener error ends the loop.
  void ServeConnections() EXCLUDES(mu_);
  void HandleConnection(int fd) EXCLUDES(mu_);
  void InitiateDrain() EXCLUDES(mu_);
  /// A fresh oracle of `method` for Start or RELOAD, behind the pre-filter
  /// when `prefilter`. InvalidArgument for an unknown method, and with
  /// `need_snapshot` for one that cannot save and load index snapshots.
  static StatusOr<std::unique_ptr<ReachabilityOracle>> MakeServedOracle(
      const std::string& method, bool prefilter, bool need_snapshot);
  /// RELOAD: loads + validates the snapshot at `path` and atomically
  /// publishes it; any failure returns without touching the live index.
  Status ReloadFromSnapshot(const std::string& path) EXCLUDES(swap_mu_);
  /// SAVE: writes the live index snapshot to `path` via the atomic
  /// tmp + rename publish (server/snapshot.h).
  Status SaveLiveIndex(const std::string& path) EXCLUDES(swap_mu_);
  /// Records load diagnostics of an index publish (Start or RELOAD) into
  /// stats_ and emits one info_log_ line when a sink is configured.
  void RecordPublish(const std::string& what, double millis, bool mapped);

  // Lock map (see docs/ARCHITECTURE.md, "Lock map & thread-safety
  // analysis"): three mutexes, no nesting — each critical section touches
  // exactly one of them, so there is no acquisition order to get wrong.
  // Everything outside a GUARDED_BY below is either written only during
  // the single-threaded Start() setup phase and read-only afterwards
  // (context_, build_stats_, graph_, prefilter_, port_, started_,
  // loaded_from_snapshot_, wake_rd_, and listen_fd_ until the last handler
  // closes it), atomic (wake_wr_), or internally synchronized (stats_:
  // relaxed atomics; index_slot_: its own mutex).

  SessionContext context_;
  ServerStats stats_;
  BuildStats build_stats_;
  IndexSlot index_slot_;    // Live index; swapped by ReloadFromSnapshot.
  const Digraph* graph_ = nullptr;  // Caller-owned; outlives the server.
  Mutex swap_mu_;           // Serializes RELOAD/SAVE snapshot I/O so at
                            // most one candidate index is in flight.
  bool prefilter_ = false;  // RELOAD re-wraps its fresh oracle to match.
  std::function<void(const std::string&)> info_log_;  // Set during Start.
  Mutex query_mutex_;       // Used only when the oracle is not
                            // concurrent-query-safe (context_.query_mutex).

  /// Guards the drain handshake: which sessions are live, how many
  /// handlers still run, and the drain flag Wait() blocks on.
  Mutex mu_;
  CondVar cv_;  // Signals a handler leaving its loop. Always notified
                // under mu_ (destruction discipline, util/sync.h).
  // Polled by every handler; the last one to leave its loop closes it
  // (under mu_, after every other handler stopped polling it). Nothing
  // else touches it, so a signal handler can never shutdown(2) a recycled
  // descriptor number.
  int listen_fd_ = -1;
  // Self-pipe that wakes the handlers' polls: InitiateDrain and
  // RequestStopFromSignal write one byte, which nothing reads, so it ends
  // every handler's poll. Both ends live until the destructor; the write
  // end is atomic because the signal handler reads it without mu_.
  int wake_rd_ = -1;
  std::atomic<int> wake_wr_{-1};
  uint16_t port_ = 0;
  bool started_ = false;
  bool loaded_from_snapshot_ = false;
  bool loaded_mmap_ = false;
  bool draining_ GUARDED_BY(mu_) = false;
  std::set<int> session_fds_ GUARDED_BY(mu_);
  size_t running_handlers_ GUARDED_BY(mu_) = 0;  // Not yet out of the loop.
  std::vector<std::thread> handlers_ GUARDED_BY(mu_);  // Joined by Stop().
};

}  // namespace server
}  // namespace reach

#endif  // REACH_SERVER_SERVER_H_
