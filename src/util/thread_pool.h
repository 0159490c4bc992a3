// Work-stealing-free parallel runtime for deterministic index construction.
//
// The runtime is deliberately small: blocking ParallelFor/ParallelChunks
// helpers whose helper threads come from one private, grow-only pool fed
// from a locked queue (no per-thread deques, no stealing; see
// thread_pool.cc). Nothing else runs on that pool. Construction code in
// this library is only allowed to use these helpers, and only under the
// determinism contract documented below — the same inputs must produce the
// same index bytes for every thread count (see docs/ARCHITECTURE.md,
// "Threading contract").

#ifndef REACH_UTIL_THREAD_POOL_H_
#define REACH_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace reach {

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
/// `threads` concurrent participants (the calling thread plus helper threads
/// of the runtime's private pool). Blocks until every chunk has run.
/// `threads` <= 0 means DefaultBuildThreads().
///
/// Progress does not depend on the helpers: the caller claims chunks too
/// and waits only for chunks a helper has claimed and is running. When
/// every helper is busy (running the chunks of other concurrent calls),
/// the caller runs every chunk itself and returns; a helper that starts
/// afterwards finds no chunk and returns without calling `fn`.
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
/// than re-entering the pool.
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
