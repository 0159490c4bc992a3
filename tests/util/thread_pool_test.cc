// Unit coverage for the parallel runtime: chunk decomposition, exact-once
// index coverage for any thread count, the sequential-ordering guarantee,
// exception propagation, nesting, progress while every helper is busy, and
// REACH_THREADS resolution.

#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/factory.h"
#include "core/reachability.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/sync.h"

namespace reach {
namespace {

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  int calls = 0;
  ParallelFor(0, 0, 4, 8, [&](size_t) { ++calls; });
  ParallelFor(10, 10, 4, 8, [&](size_t) { ++calls; });
  ParallelFor(10, 5, 4, 8, [&](size_t) { ++calls; });  // end < begin.
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, GrainLargerThanRangeRunsInlineInOrder) {
  std::vector<size_t> seen;
  ParallelFor(3, 9, 100, 8, [&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{3, 4, 5, 6, 7, 8}));
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  constexpr size_t kN = 10000;
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> counts(kN);
    ParallelFor(0, kN, 7, threads, [&](size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(counts[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads";
    }
  }
}

TEST(ParallelForTest, SingleThreadRunsInAscendingOrder) {
  std::vector<size_t> seen;
  ParallelFor(0, 1000, 16, 1, [&](size_t i) { seen.push_back(i); });
  ASSERT_EQ(seen.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(ParallelChunksTest, ChunksPartitionTheRange) {
  Mutex mu;
  std::vector<ChunkInfo> chunks;
  ParallelChunks(5, 47, 10, 4, [&](const ChunkInfo& chunk) {
    MutexLock lock(mu);
    chunks.push_back(chunk);
  });
  std::sort(chunks.begin(), chunks.end(),
            [](const ChunkInfo& a, const ChunkInfo& b) {
              return a.index < b.index;
            });
  ASSERT_EQ(chunks.size(), 5u);  // ceil(42 / 10).
  size_t expected_begin = 5;
  for (size_t c = 0; c < chunks.size(); ++c) {
    EXPECT_EQ(chunks[c].index, c);
    EXPECT_EQ(chunks[c].begin, expected_begin);
    EXPECT_EQ(chunks[c].end, std::min<size_t>(47, expected_begin + 10));
    EXPECT_LT(chunks[c].worker, 4u);
    expected_begin = chunks[c].end;
  }
  EXPECT_EQ(chunks.back().end, 47u);
}

TEST(ParallelChunksTest, ZeroGrainIsTreatedAsOne) {
  std::atomic<int> calls{0};
  ParallelChunks(0, 5, 0, 2, [&](const ChunkInfo& chunk) {
    EXPECT_EQ(chunk.end, chunk.begin + 1);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 5);
}

TEST(ParallelForTest, ExceptionPropagatesSequential) {
  EXPECT_THROW(ParallelFor(0, 100, 8, 1,
                           [](size_t i) {
                             if (i == 37) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ParallelForTest, ExceptionPropagatesParallel) {
  try {
    ParallelFor(0, 10000, 4, 8, [](size_t i) {
      if (i == 4321) throw std::runtime_error("parallel boom");
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "parallel boom");
  }
  // The runtime stays usable after a failed region.
  std::atomic<int> calls{0};
  ParallelFor(0, 100, 4, 8, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  std::vector<std::atomic<int>> counts(64 * 64);
  ParallelFor(0, 64, 1, 8, [&](size_t outer) {
    ParallelFor(0, 64, 4, 8, [&](size_t inner) {
      counts[outer * 64 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (auto& count : counts) ASSERT_EQ(count.load(), 1);
}

/// Holds every helper a `count`-participant ParallelChunks asks for, each
/// in a chunk that blocks until Release(), as another caller's long
/// parallel region would. The call runs on a side thread, whose own chunk
/// blocks too; the destructor releases them all and joins it.
class HeldHelpers {
 public:
  explicit HeldHelpers(size_t count)
      : count_(count), side_([this] {
          ParallelChunks(0, count_, 1, static_cast<int>(count_),
                         [this](const ChunkInfo&) { Hold(); });
        }) {
    MutexLock lock(mu_);
    while (started_ != count_) cv_.Wait(mu_);
  }
  ~HeldHelpers() {
    Release();
    side_.join();
  }

  void Release() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    released_ = true;
    cv_.NotifyAll();
  }

 private:
  void Hold() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    ++started_;
    cv_.NotifyAll();
    while (!released_) cv_.Wait(mu_);
  }

  const size_t count_;
  Mutex mu_;
  CondVar cv_;
  size_t started_ GUARDED_BY(mu_) = 0;
  bool released_ GUARDED_BY(mu_) = false;
  std::thread side_;  // Last: its call uses the members above.
};

// A ParallelChunks caller waits only for chunks a helper has claimed, so
// it finishes on its own thread while every helper is busy. Each call runs
// on another thread and must finish within 5 s while the helpers are held;
// a hang releases them and fails.
TEST(ParallelChunksTest, FinishesWhileEverySharedWorkerIsBusy) {
  const std::string path = testing_util::TempPath("thread_pool_test.txt");
  const Digraph written = RandomDag(3000, 12000, 5);
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(WriteEdgeList(written, out).ok());
  }
  const std::vector<std::pair<std::string, std::function<bool()>>> calls = {
      {"4-participant ParallelChunks",
       [] {
         std::atomic<int> chunks{0};
         ParallelChunks(0, 64, 1, 4,
                        [&](const ChunkInfo&) { chunks.fetch_add(1); });
         return chunks.load() == 64;
       }},
      {"4-thread DL build",
       [] {
         BuildOptions options;
         options.threads = 4;
         return ReachabilityIndex::Build(RandomDag(5000, 20000, 7),
                                         MakeOracle("DL"), options)
             .ok();
       }},
      {"4-range edge-list read",
       [&] {
         GraphReadStats stats;
         const StatusOr<Digraph> graph = internal::ReadEdgeListFileCutAt(
             path, {20000, 40000, 60000}, &stats);
         return graph.ok() && stats.ranges == 4 &&
                graph->CollectEdges() == written.CollectEdges();
       }},
  };
  // More helpers than any other test in this binary asks for, so none is
  // free.
  HeldHelpers blocked(16);
  for (const auto& [what, call] : calls) {
    std::future<bool> done = std::async(std::launch::async, call);
    const bool in_time =
        done.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
    if (!in_time) blocked.Release();
    EXPECT_TRUE(in_time) << what << " waited on a busy helper";
    EXPECT_TRUE(done.get()) << what;
  }
  std::remove(path.c_str());
}

TEST(DefaultBuildThreadsTest, HonorsValidReachThreads) {
  ASSERT_EQ(setenv("REACH_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(DefaultBuildThreads(), 3);
  ASSERT_EQ(setenv("REACH_THREADS", "1", 1), 0);
  EXPECT_EQ(DefaultBuildThreads(), 1);
  unsetenv("REACH_THREADS");
}

TEST(DefaultBuildThreadsTest, FallsBackOnMissingOrMalformedEnv) {
  unsetenv("REACH_THREADS");
  const int hardware = DefaultBuildThreads();
  EXPECT_GE(hardware, 1);
  for (const char* bad : {"abc", "0", "-4", "3.5", "", "99999"}) {
    ASSERT_EQ(setenv("REACH_THREADS", bad, 1), 0);
    EXPECT_EQ(DefaultBuildThreads(), hardware) << "REACH_THREADS=" << bad;
  }
  unsetenv("REACH_THREADS");
}

}  // namespace
}  // namespace reach
