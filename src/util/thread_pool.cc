#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "util/strict_parse.h"
#include "util/sync.h"

namespace reach {

namespace {

// The helper threads of every ParallelChunks call: workers fed from one
// locked queue, grown to the most helpers any call has asked for and never
// shrunk. Every task is a ChunkRun helper, which only runs chunks, so a
// queued task waits only behind other calls' chunks.
class ThreadPool {
 public:
  ThreadPool() = default;
  // Lets the workers drain every queued task, then joins them: a submitted
  // task always runs, so it must own the state it touches.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void EnsureWorkers(size_t num_workers) EXCLUDES(mu_);
  void Submit(std::function<void()> task) EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  // One lock for the whole pool: queue contents, the stop flag and the
  // worker set change together. Leaf mutex: tasks run after it is
  // released.
  Mutex mu_;
  CondVar cv_;  // Signals: queue_ non-empty, or stop_ flipped.
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_ GUARDED_BY(mu_);
};

ThreadPool::~ThreadPool() {
  // The worker set is moved out under the lock, then joined without it: a
  // worker about to re-check the queue needs mu_ to do so.
  std::vector<std::thread> workers;
  {
    MutexLock lock(mu_);
    stop_ = true;
    workers = std::move(workers_);
    // Notify under the lock: a worker between its predicate check and its
    // wait either holds mu_ (so the broadcast lands after it parks) or is
    // already parked — no wakeup can be lost, and the broadcast is over
    // before this destructor can free cv_.
    cv_.NotifyAll();
  }
  for (std::thread& worker : workers) worker.join();
}

void ThreadPool::EnsureWorkers(size_t num_workers) {
  MutexLock lock(mu_);
  while (workers_.size() < num_workers) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // Spelled-out predicate loop (not CondVar::Wait(mu, pred)): the
      // analysis cannot see through lambda captures, and stop_/queue_ are
      // GUARDED_BY(mu_) — see util/sync.h.
      while (!stop_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stop_ set and nothing left to run.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace

unsigned HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

int DefaultBuildThreads() {
  const char* env = std::getenv("REACH_THREADS");
  if (env != nullptr && *env != '\0') {
    uint64_t value = 0;
    if (ParseDecimalUint64(env, &value) && value >= 1 && value <= 1024) {
      return static_cast<int>(value);
    }
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "warning: ignoring REACH_THREADS='%s' (want an integer in "
                   "[1, 1024]); using hardware concurrency\n",
                   env);
    }
  }
  return static_cast<int>(HardwareThreads());
}

namespace internal {

namespace {

// Shared state of one ParallelChunksImpl call. Helpers and the caller claim
// chunk indices from `next`; `finished` counts the claimed chunks that are
// done, and the caller returns once it reaches `num_chunks`. A helper that
// starts after every chunk was claimed finds none and never touches `fn`,
// so the caller never waits on a helper still queued behind other tasks.
struct ChunkRun {
  size_t begin = 0;
  size_t end = 0;
  size_t grain = 1;
  size_t num_chunks = 0;
  const std::function<void(const ChunkInfo&)>* fn = nullptr;

  std::atomic<size_t> next{0};
  std::atomic<size_t> finished{0};
  std::atomic<bool> failed{false};

  Mutex mu;
  CondVar done_cv;  // Signals `finished` reaching num_chunks.
  std::exception_ptr first_exception GUARDED_BY(mu);

  void RunChunksAs(size_t worker) EXCLUDES(mu) {
    for (;;) {
      const size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return;
      // A chunk claimed after a failure is abandoned, but still counted.
      if (!failed.load(std::memory_order_relaxed)) {
        ChunkInfo info;
        info.index = chunk;
        info.begin = begin + chunk * grain;
        info.end = std::min(end, info.begin + grain);
        info.worker = worker;
        try {
          (*fn)(info);
        } catch (...) {
          MutexLock lock(mu);
          if (!first_exception) first_exception = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      // Release: the chunk's writes happen before the caller's return.
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        // Under the lock, so the caller cannot miss it between its check
        // and its wait.
        MutexLock lock(mu);
        done_cv.NotifyAll();
      }
    }
  }
};

// True while the current thread is executing a chunk; nested ParallelChunks
// calls then run inline instead of dispatching helpers.
thread_local bool in_parallel_region = false;

}  // namespace

void ParallelChunksImpl(size_t begin, size_t end, size_t grain, int threads,
                        const std::function<void(const ChunkInfo&)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const size_t count = end - begin;
  const size_t num_chunks = (count + grain - 1) / grain;
  int resolved = threads > 0 ? threads : DefaultBuildThreads();
  const size_t participants =
      in_parallel_region
          ? 1
          : std::min<size_t>(static_cast<size_t>(resolved), num_chunks);

  if (participants <= 1) {
    // Sequential path: ascending chunk order, no synchronization. This is
    // the reference schedule the determinism contract is stated against.
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      ChunkInfo info;
      info.index = chunk;
      info.begin = begin + chunk * grain;
      info.end = std::min(end, info.begin + grain);
      info.worker = 0;
      fn(info);
    }
    return;
  }

  auto run = std::make_shared<ChunkRun>();
  run->begin = begin;
  run->end = end;
  run->grain = grain;
  run->num_chunks = num_chunks;
  run->fn = &fn;

  // Joined during static destruction, after every ParallelChunks call has
  // returned; a helper still queued then owns the `run` it touches.
  static ThreadPool pool;
  pool.EnsureWorkers(participants - 1);
  for (size_t helper = 1; helper < participants; ++helper) {
    // The task holds `run`: it may start after this call has returned.
    pool.Submit([run, helper] {
      in_parallel_region = true;
      run->RunChunksAs(helper);
      in_parallel_region = false;
    });
  }

  in_parallel_region = true;
  run->RunChunksAs(0);
  in_parallel_region = false;

  // Every chunk is claimed by now; wait only for those still running.
  std::exception_ptr error;
  {
    MutexLock lock(run->mu);
    while (run->finished.load(std::memory_order_acquire) != num_chunks) {
      run->done_cv.Wait(run->mu);
    }
    // Taken out of `run`, which a late helper may be the one to destroy:
    // the exception is then released only on this thread.
    error = std::move(run->first_exception);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace internal
}  // namespace reach
