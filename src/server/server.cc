#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "baselines/factory.h"
#include "core/prefilter.h"
#include "server/snapshot.h"
#include "util/resource.h"
#include "util/timer.h"

namespace reach {
namespace server {

namespace {

/// How long a handler polls for the next request before it blocks. A
/// client that waits for each reply sends its next request 5-10 us after
/// the reply on serve-q-dl (single Q lines) and 35-40 us after it on
/// serve-batch-reload-hl (BATCH 1000 frames, 98.9% within 50 us); a
/// handler blocked by then pays for waking a halted CPU.
constexpr std::chrono::microseconds kReceiveSpin{50};

/// A sched_yield() that takes longer than this ran another thread first.
/// With nothing else runnable it returns in under 0.5 us.
constexpr std::chrono::nanoseconds kHandoff{1000};

/// A spin that ends without a request (its window passed, or a yield
/// handed the CPU to a thread that wanted it) adds kSpinDebt receives of
/// debt; each receive pays one back, and a handler spins only while its
/// debt is below kDebtLimit. So a rare wasted spin leaves the spin on,
/// while a client slower than the window, or more busy threads than CPUs,
/// keep most receives blocking at once, as they did without a spin.
constexpr int kSpinDebt = 32;
constexpr int kDebtLimit = 64;

/// recv() into `buffer`, polling with MSG_DONTWAIT for up to kReceiveSpin
/// before a blocking recv, unless the connection's `*debt` is at its
/// limit. Each empty poll yields the CPU, so a runnable thread sharing it
/// (another handler, a client) is never starved. Returns what recv
/// returns: data, 0 at EOF (the drain's shutdown(SHUT_RD) too, polling or
/// blocked), or -1 with errno set.
ssize_t ReceiveSpinThenBlock(int fd, char* buffer, size_t size, int* debt) {
  using Clock = std::chrono::steady_clock;
  if (*debt > 0) --*debt;
  if (*debt < kDebtLimit) {
    const Clock::time_point deadline = Clock::now() + kReceiveSpin;
    while (true) {
      const ssize_t n = ::recv(fd, buffer, size, MSG_DONTWAIT);
      if (n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) return n;
      const Clock::time_point polled = Clock::now();
      if (polled >= deadline) break;
      ::sched_yield();
      if (Clock::now() - polled > kHandoff) break;
    }
    *debt += kSpinDebt;
  }
  return ::recv(fd, buffer, size, 0);
}

/// send() the whole buffer, retrying partial writes and EINTR. MSG_NOSIGNAL
/// turns a peer that vanished mid-response into an error return instead of
/// a process-killing SIGPIPE. Returns false when the connection is gone.
bool SendAll(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

ReachServer::ReachServer() = default;

ReachServer::~ReachServer() {
  if (started_) Stop();
  // The wake pipe outlives the drain: RequestStopFromSignal may target it
  // until the caller unregisters its signal handler, which the contract
  // requires to happen before destruction.
  if (wake_rd_ >= 0) ::close(wake_rd_);
  const int wake_wr = wake_wr_.exchange(-1);
  if (wake_wr >= 0) ::close(wake_wr);
}

Status ReachServer::Start(const Digraph& graph,
                          const ServerOptions& options) {
  if (started_) {
    return Status::InvalidArgument("server already started");
  }
  std::unique_ptr<ReachabilityOracle> oracle = MakeOracle(options.method);
  if (oracle == nullptr) {
    return Status::InvalidArgument("unknown oracle '" + options.method +
                                   "'");
  }
  if (options.prefilter) {
    oracle = std::make_unique<PrefilterOracle>(std::move(oracle));
  }
  prefilter_ = options.prefilter;
  oracle->set_budget(options.budget);
  if (!options.save_index_path.empty() &&
      !options.load_index_path.empty()) {
    // Refuse the ambiguous combination rather than silently ignoring the
    // save path (the load branch skips the build the save would record).
    return Status::InvalidArgument(
        "save_index_path and load_index_path are mutually exclusive");
  }
  if ((!options.save_index_path.empty() ||
       !options.load_index_path.empty()) &&
      !oracle->SupportsSnapshot()) {
    // Fail before paying for a build whose snapshot write would then be
    // refused (or a condensation whose load would).
    return Status::InvalidArgument(
        "method '" + options.method +
        "' does not support index snapshots (snapshot-capable: DL, HL, TF, "
        "2HOP)");
  }
  info_log_ = options.info_log;
  Timer load_timer;
  if (!options.load_index_path.empty()) {
    // Restart-without-rebuild: restore the saved index instead of paying
    // construction again (mmap-backed when method and platform allow; see
    // LoadIndexSnapshotFile's capability matrix). SCC condensation is
    // recomputed only when the snapshot is not DAG-shaped.
    StatusOr<ReachabilityIndex> index = LoadIndexSnapshotFile(
        options.load_index_path, options.method, graph, std::move(oracle),
        &build_stats_, &loaded_mmap_);
    if (!index.ok()) return index.status();
    index_slot_.Publish(
        std::make_shared<const ReachabilityIndex>(std::move(*index)));
    loaded_from_snapshot_ = true;
    RecordPublish("loaded " + options.load_index_path,
                  load_timer.ElapsedMillis(), loaded_mmap_);
  } else {
    BuildOptions build_options;
    build_options.threads = options.build_threads;
    StatusOr<ReachabilityIndex> index = ReachabilityIndex::Build(
        graph, std::move(oracle), build_options, &build_stats_);
    if (!index.ok()) return index.status();
    index_slot_.Publish(
        std::make_shared<const ReachabilityIndex>(std::move(*index)));
    RecordPublish("built index", load_timer.ElapsedMillis(),
                  /*mapped=*/false);
    if (!options.save_index_path.empty()) {
      // Atomic publish (tmp + rename): a crash or full disk mid-write can
      // never leave a truncated file that poisons the next --load-index.
      REACH_RETURN_IF_ERROR(SaveIndexSnapshot(
          options.save_index_path, options.method, graph.num_vertices(),
          graph.num_edges(), index_slot_.Acquire()->oracle()));
    }
  }

  graph_ = &graph;
  context_.index = &index_slot_;
  context_.method = options.method;
  context_.graph_vertices = graph.num_vertices();
  context_.graph_edges = graph.num_edges();
  context_.stats = &stats_;
  context_.limits = options.limits;
  context_.query_mutex = index_slot_.Acquire()->oracle().ConcurrentQuerySafe()
                             ? nullptr
                             : &query_mutex_;
  context_.reload = [this](const std::string& path) {
    return ReloadFromSnapshot(path);
  };
  context_.save = [this](const std::string& path) {
    return SaveLiveIndex(path);
  };

  // Non-blocking listener: every handler polls it together with the wake
  // pipe, and all of them wake for one connection, so accept4 must never
  // block when another handler took it.
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address '" + options.host +
                                   "'");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Status::IOError(
        "bind " + options.host + ":" + std::to_string(options.port) + ": " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) < 0) {
    const Status status =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    const Status status =
        Status::IOError(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  // Self-pipe for drain/signal wakeups. Non-blocking so a flood of signals
  // can never block the handler on a full pipe.
  int wake[2] = {-1, -1};
  if (::pipe2(wake, O_CLOEXEC | O_NONBLOCK) < 0) {
    const Status status =
        Status::IOError(std::string("pipe2: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  wake_rd_ = wake[0];
  wake_wr_.store(wake[1]);
  port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  started_ = true;

  const int workers = options.workers < 1 ? 1 : options.workers;
  MutexLock lock(mu_);
  for (int i = 0; i < workers; ++i) {
    handlers_.emplace_back([this] { ServeConnections(); });
    ++running_handlers_;
  }
  return Status::OK();
}

void ReachServer::ServeConnections() {
  while (true) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_rd_, POLLIN, 0};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;  // Fatal poll error: stop accepting and drain.
    }
    // Any wake-pipe event (a drain or signal-stop byte) ends the loop,
    // even if a connection is ready too — draining_ is or will be set, so
    // that connection would only be accepted to be closed again.
    if (fds[1].revents != 0) break;
    if (fds[0].revents & (POLLERR | POLLHUP | POLLNVAL)) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      // Another handler may have taken the connection, or it vanished
      // between poll and accept; only an error that outlives a retry is
      // fatal.
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      // Transient resource pressure (a connection burst exhausting fds or
      // kernel memory) must not drain a long-lived server permanently.
      // Back off briefly — watching only the wake pipe so a drain request
      // still interrupts the wait — and try again once handlers have had
      // a chance to close their connections.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        pollfd wake = {wake_rd_, POLLIN, 0};
        ::poll(&wake, 1, 100);
        continue;
      }
      break;
    }
    // A peer that stops reading must not park a handler in send() forever
    // and stall the drain; time the write out and drop the connection.
    timeval send_timeout{};
    send_timeout.tv_sec = 30;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    {
      MutexLock lock(mu_);
      if (draining_) {
        ::close(fd);
        continue;
      }
      session_fds_.insert(fd);
    }
    stats_.connections.fetch_add(1, std::memory_order_relaxed);
    HandleConnection(fd);
  }
  // The loop can end without SHUTDOWN/Stop (a listener error, or
  // RequestStopFromSignal); the drain then starts here, and its wake byte
  // ends every other handler's loop too.
  InitiateDrain();
  MutexLock lock(mu_);
  if (--running_handlers_ == 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Notify under the lock: once it is released, Wait() may return and
  // the server (cv_ included) may be destroyed, so the broadcast must
  // already be over by then.
  cv_.NotifyAll();
}

void ReachServer::HandleConnection(int fd) {
  Session session(&context_);
  std::string response;
  char buffer[4096];
  int spin_debt = 0;
  while (true) {
    const ssize_t n =
        ReceiveSpinThenBlock(fd, buffer, sizeof(buffer), &spin_debt);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, error, or drain's shutdown(SHUT_RD).
    response.clear();
    const Session::State state =
        session.Feed(std::string_view(buffer, static_cast<size_t>(n)),
                     &response);
    const bool sent = response.empty() || SendAll(fd, response);
    if (state == Session::State::kShutdownRequested) {
      // An accepted SHUTDOWN drains the server even when the client went
      // away before reading BYE — the command, not the farewell delivery,
      // is the contract.
      InitiateDrain();
      break;
    }
    if (!sent || state == Session::State::kClosed) break;
  }
  {
    MutexLock lock(mu_);
    session_fds_.erase(fd);
  }
  // The close stays after the erase so InitiateDrain can never shutdown()
  // a recycled descriptor.
  ::close(fd);
}

void ReachServer::InitiateDrain() {
  {
    MutexLock lock(mu_);
    if (draining_) return;
    draining_ = true;
    // Unblock the handlers: one byte on the wake pipe ends every poll.
    const int wake_wr = wake_wr_.load();
    if (wake_wr >= 0) {
      const char byte = 0;
      [[maybe_unused]] const ssize_t n = ::write(wake_wr, &byte, 1);
    }
    // Unblock every idle session: recv returns 0 and the handler flushes
    // and closes. Commands already received keep being answered — drain,
    // not abort.
    for (const int fd : session_fds_) ::shutdown(fd, SHUT_RD);
  }
}

void ReachServer::Wait() {
  // Every drain writes the wake byte. This thread watches for it too: a
  // handler serving a connection does not poll the pipe, so with every
  // handler held a signal's byte would otherwise wait for a connection to
  // close.
  pollfd wake = {wake_rd_, POLLIN, 0};
  while (::poll(&wake, 1, -1) < 0 && errno == EINTR) {
  }
  InitiateDrain();
  MutexLock lock(mu_);
  // Spelled-out predicate loop: running_handlers_ is GUARDED_BY(mu_), and
  // the analysis cannot see through a lambda capture (util/sync.h).
  while (running_handlers_ != 0) cv_.Wait(mu_);
}

void ReachServer::Stop() {
  if (!started_) return;
  InitiateDrain();
  Wait();
  // Every handler is out of its loop; the join only waits for the threads
  // to return.
  std::vector<std::thread> handlers;
  {
    MutexLock lock(mu_);
    handlers.swap(handlers_);
  }
  for (std::thread& handler : handlers) handler.join();
}

Status ReachServer::ReloadFromSnapshot(const std::string& path) {
  // One candidate index at a time: concurrent RELOADs would each pay a
  // full snapshot load only for all but the last publish to be wasted,
  // and the transient memory footprint stays bounded at two indexes.
  MutexLock lock(swap_mu_);
  std::unique_ptr<ReachabilityOracle> oracle = MakeOracle(context_.method);
  if (oracle == nullptr || !oracle->SupportsSnapshot()) {
    return Status::InvalidArgument(
        "method '" + context_.method +
        "' does not support index snapshots (snapshot-capable: DL, HL, TF, "
        "2HOP)");
  }
  // A prefilter server snapshots (and therefore reloads) the screening
  // columns in front of the oracle blob; re-wrap so the formats line up.
  if (prefilter_) {
    oracle = std::make_unique<PrefilterOracle>(std::move(oracle));
  }
  // Strict validation before the swap: same method, same graph shape, and
  // a label blob that passes the hardened reader (stream or mapped). Every
  // failure below returns with the live index untouched.
  Timer load_timer;
  bool mapped = false;
  StatusOr<ReachabilityIndex> next = LoadIndexSnapshotFile(
      path, context_.method, *graph_, std::move(oracle), nullptr, &mapped);
  if (!next.ok()) return next.status();
  // Atomic publish: new queries acquire the new index; in-flight queries
  // finish on the old one, which dies with its last reference — and with
  // it the old mapping, which MappedBlob unmaps only then. An old index
  // served from a mapping (the live one's load_mmap) that no query holds
  // is unmapped before any query can touch the new mapping.
  const bool old_mapped =
      stats_.load_mmap.load(std::memory_order_relaxed) != 0;
  index_slot_.Publish(
      std::make_shared<const ReachabilityIndex>(std::move(*next)),
      old_mapped ? IndexSlot::Retire::kBeforeReaders
                 : IndexSlot::Retire::kAfterUnlock);
  RecordPublish("reloaded " + path, load_timer.ElapsedMillis(), mapped);
  return Status::OK();
}

void ReachServer::RecordPublish(const std::string& what, double millis,
                                bool mapped) {
  stats_.load_micros.store(static_cast<uint64_t>(millis * 1000.0),
                           std::memory_order_relaxed);
  const uint64_t rss_kb = PeakRssKb();
  stats_.rss_peak_kb.store(rss_kb, std::memory_order_relaxed);
  stats_.load_mmap.store(mapped ? 1 : 0, std::memory_order_relaxed);
  if (info_log_ != nullptr) {
    char line[192];
    std::snprintf(line, sizeof(line),
                  "%s: load_ms=%.3f rss_kb=%llu mmap=%d identity_scc=%d",
                  what.c_str(), millis,
                  static_cast<unsigned long long>(rss_kb), mapped ? 1 : 0,
                  index_slot_.Acquire()->identity_condensation() ? 1 : 0);
    info_log_(line);
  }
}

Status ReachServer::SaveLiveIndex(const std::string& path) {
  // The shared_ptr pins the index being saved even if a RELOAD lands
  // mid-write; swap_mu_ keeps two SAVEs from racing on the same tmp file.
  MutexLock lock(swap_mu_);
  const std::shared_ptr<const ReachabilityIndex> index =
      index_slot_.Acquire();
  return SaveIndexSnapshot(path, context_.method, context_.graph_vertices,
                           context_.graph_edges, index->oracle());
}

void ReachServer::RequestStopFromSignal() {
  // Only async-signal-safe calls here: write(2) on the self-pipe, whose
  // descriptor stays valid until destruction — unlike the listener fd,
  // which the last handler closes (and the kernel may recycle) during the
  // drain. The handlers polling it, and a thread blocked in Wait(), wake
  // and complete the drain with proper locking.
  const int wake_wr = wake_wr_.load();
  if (wake_wr >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_wr, &byte, 1);
  }
}

}  // namespace server
}  // namespace reach
