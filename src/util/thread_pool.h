// Work-stealing-free parallel runtime for deterministic index construction.
//
// The runtime is deliberately small: a fixed-worker ThreadPool fed from one
// locked queue (no per-thread deques, no stealing) plus a blocking
// ParallelFor/ParallelChunks helper layered on top. Construction code in
// this library is only allowed to use these helpers, and only under the
// determinism contract documented below — the same inputs must produce the
// same index bytes for every thread count (see docs/ARCHITECTURE.md,
// "Threading contract").

#ifndef REACH_UTIL_THREAD_POOL_H_
#define REACH_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace reach {

/// Fixed set of worker threads consuming closures from one shared queue.
///
/// Ownership / thread-safety:
///  - The pool owns its worker threads. The destructor lets the workers
///    drain every task still queued, then joins — it never cancels work,
///    so a submitted task WILL run; do not submit tasks referencing state
///    that may die before the pool does. Callers that need to observe
///    completion must track it themselves (ParallelChunks does: it blocks
///    until every chunk has run, and its helper tasks own the state they
///    touch, so they may start after it returned).
///  - Submit() and EnsureWorkers() are safe to call from any thread.
///  - Tasks must never block waiting for another task in the same pool;
///    ParallelChunks obeys this by running nested invocations inline on the
///    calling worker instead of re-entering the pool.
///
/// There is no work stealing: a task runs on whichever worker pops it, and
/// all load balancing happens at the chunk level inside ParallelChunks via a
/// shared atomic chunk counter.
class ThreadPool {
 public:
  /// Starts `num_workers` threads (0 is allowed: a pool that only grows on
  /// demand via EnsureWorkers).
  explicit ThreadPool(size_t num_workers);

  /// Stops accepting work, lets in-flight tasks finish, joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const EXCLUDES(mu_);

  /// Enqueues `task` for execution on some worker. Never blocks.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Grows the worker set to at least `num_workers` (never shrinks). Lets
  /// the shared pool start at zero threads and only pay for what the
  /// requested --threads values actually need.
  void EnsureWorkers(size_t num_workers) EXCLUDES(mu_);

  /// The process-wide pool used by ParallelChunks/ParallelFor. Starts with
  /// zero workers; grows on demand. Created on first use, joined at exit.
  static ThreadPool& Shared();

 private:
  void WorkerLoop() EXCLUDES(mu_);

  /// One lock for the whole pool: queue contents, the stop flag, and the
  /// worker set all change together (Submit vs stop vs grow), so splitting
  /// them would only invite lock-order questions. Leaf mutex: nothing is
  /// acquired while it is held (tasks run after it is released).
  mutable Mutex mu_;
  CondVar cv_;  // Signals: queue_ non-empty, or stop_ flipped.
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ GUARDED_BY(mu_);
};

/// std::thread::hardware_concurrency(), but never 0.
unsigned HardwareThreads();

/// The thread count used when BuildOptions.threads is 0 (the default):
/// the REACH_THREADS environment variable when it holds a strictly positive
/// decimal integer, otherwise HardwareThreads(). A malformed REACH_THREADS
/// is ignored (with a one-line warning to stderr on first use).
int DefaultBuildThreads();

/// One contiguous piece of a ParallelChunks range.
struct ChunkInfo {
  size_t index;   // Chunk number: [begin + index*grain, ...).
  size_t begin;   // First element of the chunk (inclusive).
  size_t end;     // One past the last element of the chunk.
  size_t worker;  // Dense participant id in [0, workers used); stable for
                  // the duration of the call, so callers may key per-worker
                  // scratch state by it (allocate `threads` slots).
};

namespace internal {

/// Non-template core of ParallelChunks; see the template for the contract.
void ParallelChunksImpl(size_t begin, size_t end, size_t grain, int threads,
                        const std::function<void(const ChunkInfo&)>& fn);

}  // namespace internal

/// Splits [begin, end) into fixed chunks of `grain` elements (the last chunk
/// may be short) and invokes `fn` exactly once per chunk, using up to
/// `threads` concurrent participants (the calling thread plus workers from
/// ThreadPool::Shared()). Blocks until every chunk has run. `threads` <= 0
/// means DefaultBuildThreads().
///
/// Progress does not depend on the pool: the caller claims chunks too and
/// waits only for chunks a helper has claimed and is running. When every
/// worker of the shared pool is busy (a server's connection handlers
/// blocked in recv, say), the caller runs every chunk itself and returns;
/// a helper that starts afterwards finds no chunk and returns without
/// calling `fn`.
///
/// Determinism contract (what makes builds byte-identical):
///  - The chunk decomposition depends only on (begin, end, grain) — never on
///    the thread count — so per-chunk results can be merged in chunk order.
///  - Each chunk runs exactly once; which participant runs it, and in what
///    order chunks complete, is unspecified. `fn` must therefore only write
///    state owned by its chunk (or keyed by ChunkInfo::worker) and must not
///    read state another concurrent chunk writes.
///  - With threads == 1 (or a single chunk) everything runs inline on the
///    caller, in ascending chunk order, with no synchronization.
///
/// The first exception thrown by `fn` is rethrown on the calling thread;
/// chunks not yet started when an exception is seen are abandoned.
/// Calls nested inside a running chunk execute inline (sequentially) rather
/// than re-entering the pool, so they cannot deadlock.
template <typename Fn>
void ParallelChunks(size_t begin, size_t end, size_t grain, int threads,
                    Fn&& fn) {
  internal::ParallelChunksImpl(begin, end, grain, threads,
                               std::function<void(const ChunkInfo&)>(fn));
}

/// Element-wise facade over ParallelChunks: invokes `fn(i)` exactly once for
/// every i in [begin, end), `grain` consecutive elements per task. The
/// determinism contract of ParallelChunks applies: `fn(i)` must only write
/// slot-i state, so that results are independent of the schedule.
template <typename Fn>
void ParallelFor(size_t begin, size_t end, size_t grain, int threads,
                 Fn&& fn) {
  ParallelChunks(begin, end, grain, threads, [&fn](const ChunkInfo& chunk) {
    for (size_t i = chunk.begin; i < chunk.end; ++i) fn(i);
  });
}

}  // namespace reach

#endif  // REACH_UTIL_THREAD_POOL_H_
