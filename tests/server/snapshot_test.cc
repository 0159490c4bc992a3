// Contract coverage for the server snapshot framing and its atomic
// publication: the writer never emits a header the hardened reader
// refuses, and a failed save never leaves a partial file — the previously
// published snapshot (or no snapshot at all) is what remains.

#include "server/snapshot.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "baselines/factory.h"
#include "core/reachability.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/mapped_blob.h"

namespace reach {
namespace server {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

bool FileExists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

TEST(SnapshotHeaderTest, RoundTrips) {
  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshotHeader(stream, "DL", 10, 20).ok());
  EXPECT_TRUE(ReadSnapshotHeader(stream, "DL", 10, 20).ok());
}

TEST(SnapshotHeaderTest, WriterRejectsOversizedMethodBeforeAnyBytes) {
  // Regression: the writer once skipped the kSnapshotMaxMethodLen bound it
  // expected readers to enforce, so it could produce a header its own
  // reader rejects. All-or-nothing: InvalidArgument, zero bytes emitted.
  std::ostringstream out;
  const Status status = WriteSnapshotHeader(
      out, std::string(kSnapshotMaxMethodLen + 1, 'x'), 10, 20);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_TRUE(out.str().empty());
}

TEST(SnapshotHeaderTest, WriterRejectsEmptyMethod) {
  std::ostringstream out;
  EXPECT_TRUE(WriteSnapshotHeader(out, "", 10, 20).IsInvalidArgument());
  EXPECT_TRUE(out.str().empty());
}

TEST(SnapshotHeaderTest, MaxLengthMethodRoundTrips) {
  // Writer and reader must agree at the boundary, not just inside it.
  const std::string method(kSnapshotMaxMethodLen, 'm');
  std::stringstream stream;
  ASSERT_TRUE(WriteSnapshotHeader(stream, method, 3, 4).ok());
  EXPECT_TRUE(ReadSnapshotHeader(stream, method, 3, 4).ok());
}

TEST(SnapshotHeaderTest, ReaderRejectsMismatchesAndCorruption) {
  std::stringstream good;
  ASSERT_TRUE(WriteSnapshotHeader(good, "DL", 10, 20).ok());
  const std::string bytes = good.str();
  {
    std::istringstream in(bytes);
    EXPECT_TRUE(ReadSnapshotHeader(in, "HL", 10, 20).IsInvalidArgument());
  }
  {
    std::istringstream in(bytes);
    EXPECT_TRUE(ReadSnapshotHeader(in, "DL", 11, 20).IsInvalidArgument());
  }
  {
    std::istringstream in(bytes);
    EXPECT_TRUE(ReadSnapshotHeader(in, "DL", 10, 21).IsInvalidArgument());
  }
  {
    std::istringstream truncated(bytes.substr(0, bytes.size() - 4));
    EXPECT_TRUE(
        ReadSnapshotHeader(truncated, "DL", 10, 20).IsCorruption());
  }
  {
    std::string flipped = bytes;
    flipped[0] ^= 0xFF;
    std::istringstream in(flipped);
    EXPECT_TRUE(ReadSnapshotHeader(in, "DL", 10, 20).IsCorruption());
  }
}

class SaveIndexSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = RandomDag(60, 180, 11);
    auto index =
        ReachabilityIndex::Build(graph_, MakeOracle("DL"));
    ASSERT_TRUE(index.ok());
    index_.emplace(std::move(*index));
    path_ = testing_util::TempPath("snapshot_test_index.snap");
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  Digraph graph_;
  std::optional<ReachabilityIndex> index_;
  std::string path_;
};

TEST_F(SaveIndexSnapshotTest, PublishesALoadableSnapshotWithNoTmpLeftover) {
  ASSERT_TRUE(SaveIndexSnapshot(path_, "DL", graph_.num_vertices(),
                                graph_.num_edges(), index_->oracle())
                  .ok());
  ASSERT_TRUE(FileExists(path_));
  EXPECT_FALSE(FileExists(path_ + ".tmp"));

  // The published file is a complete, loadable snapshot, here read onto
  // the heap (MappedLoadServesByteIdenticalAnswers covers the mmap).
  std::ifstream in(path_, std::ios::binary);
  ASSERT_TRUE(ReadSnapshotHeader(in, "DL", graph_.num_vertices(),
                                 graph_.num_edges())
                  .ok());
  auto blob = MappedBlob::OpenOwned(path_);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto restored = ReachabilityIndex::LoadMapped(
      graph_, MakeOracle("DL"), MappedRegion{*blob, SnapshotHeaderBytes(2)});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (Vertex u = 0; u < 60; ++u) {
    for (Vertex v = 0; v < 60; v += 7) {
      EXPECT_EQ(restored->Reachable(u, v), index_->Reachable(u, v));
    }
  }
}

TEST_F(SaveIndexSnapshotTest, FailedSavePreservesPreviousSnapshot) {
  // Publish a good snapshot first.
  ASSERT_TRUE(SaveIndexSnapshot(path_, "DL", graph_.num_vertices(),
                                graph_.num_edges(), index_->oracle())
                  .ok());
  const std::string before = ReadFileBytes(path_);
  ASSERT_FALSE(before.empty());

  // A save that dies partway through the body: BFS writes no snapshot
  // (SaveIndex fails after the header already hit the temporary) — the
  // exact shape of a disk-full or crash-mid-write failure. Regression:
  // the pre-atomic writer truncated the target in place, so the failure
  // poisoned the next --load-index restart.
  auto bfs_index = ReachabilityIndex::Build(graph_, MakeOracle("BFS"));
  ASSERT_TRUE(bfs_index.ok());
  const Status status =
      SaveIndexSnapshot(path_, "BFS", graph_.num_vertices(),
                        graph_.num_edges(), bfs_index->oracle());
  EXPECT_FALSE(status.ok());
  // The previous snapshot is untouched, byte for byte, and no temporary
  // is left behind.
  EXPECT_EQ(ReadFileBytes(path_), before);
  EXPECT_FALSE(FileExists(path_ + ".tmp"));
}

TEST_F(SaveIndexSnapshotTest, FailedSaveWithNoPreviousSnapshotLeavesNone) {
  auto bfs_index = ReachabilityIndex::Build(graph_, MakeOracle("BFS"));
  ASSERT_TRUE(bfs_index.ok());
  EXPECT_FALSE(SaveIndexSnapshot(path_, "BFS", graph_.num_vertices(),
                                 graph_.num_edges(), bfs_index->oracle())
                   .ok());
  EXPECT_FALSE(FileExists(path_));
  EXPECT_FALSE(FileExists(path_ + ".tmp"));
}

TEST_F(SaveIndexSnapshotTest, UnwritablePathFailsCleanly) {
  const std::string bad =
      testing_util::TempPath("no_such_dir_snapshot_test/index.snap");
  const Status status =
      SaveIndexSnapshot(bad, "DL", graph_.num_vertices(),
                        graph_.num_edges(), index_->oracle());
  EXPECT_TRUE(status.IsIOError());
  EXPECT_FALSE(FileExists(bad));
  EXPECT_FALSE(FileExists(bad + ".tmp"));
}

TEST_F(SaveIndexSnapshotTest, MappedLoadServesByteIdenticalAnswers) {
  ASSERT_TRUE(SaveIndexSnapshot(path_, "DL", graph_.num_vertices(),
                                graph_.num_edges(), index_->oracle())
                  .ok());
  bool mapped = false;
  auto loaded = LoadIndexSnapshotFile(path_, "DL", graph_, MakeOracle("DL"),
                                      nullptr, &mapped);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Every load is served in place: a mapping whenever the platform has
  // mmap at all, else the heap read of the same bytes.
  EXPECT_EQ(mapped, MappedBlob::PlatformSupportsMmap());
  // RandomDag is a DAG: the lazy identity load must skip condensation.
  EXPECT_TRUE(loaded->identity_condensation());
  for (Vertex u = 0; u < 60; ++u) {
    for (Vertex v = 0; v < 60; ++v) {
      ASSERT_EQ(loaded->Reachable(u, v), index_->Reachable(u, v))
          << "(" << u << "," << v << ")";
    }
  }
}

TEST_F(SaveIndexSnapshotTest, LoadRejectsForeignMethodAndMissingFile) {
  ASSERT_TRUE(SaveIndexSnapshot(path_, "DL", graph_.num_vertices(),
                                graph_.num_edges(), index_->oracle())
                  .ok());
  // A DL snapshot must not load into an HL server.
  EXPECT_FALSE(
      LoadIndexSnapshotFile(path_, "HL", graph_, MakeOracle("HL")).ok());
  // Nor into a DL server for a different graph shape.
  const Digraph other = RandomDag(61, 180, 12);
  EXPECT_FALSE(
      LoadIndexSnapshotFile(path_, "DL", other, MakeOracle("DL")).ok());
  // A missing file is an error, not a crash.
  EXPECT_FALSE(LoadIndexSnapshotFile(path_ + ".missing", "DL", graph_,
                                     MakeOracle("DL"))
                   .ok());
}

TEST_F(SaveIndexSnapshotTest, LoadRejectsTruncatedSnapshotWithoutSigbus) {
  // Truncation at every region of the file — inside the framing header,
  // inside the label blob's own header, mid-offsets, and one byte short —
  // must come back as a clean error from size arithmetic, never a fault
  // from touching unmapped pages.
  ASSERT_TRUE(SaveIndexSnapshot(path_, "DL", graph_.num_vertices(),
                                graph_.num_edges(), index_->oracle())
                  .ok());
  const std::string bytes = ReadFileBytes(path_);
  ASSERT_GT(bytes.size(), 200u);
  const size_t cuts[] = {4,   20,  SnapshotHeaderBytes(2) - 1,
                         SnapshotHeaderBytes(2) + 8,
                         SnapshotHeaderBytes(2) + 40, bytes.size() / 2,
                         bytes.size() - 1};
  for (const size_t cut : cuts) {
    const std::string truncated_path = path_ + ".trunc";
    {
      std::ofstream out(truncated_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
      ASSERT_TRUE(out.good());
    }
    EXPECT_FALSE(LoadIndexSnapshotFile(truncated_path, "DL", graph_,
                                       MakeOracle("DL"))
                     .ok())
        << "cut at " << cut;
    std::remove(truncated_path.c_str());
  }
  // Trailing garbage after the label blob is rejected too.
  {
    const std::string padded_path = path_ + ".trail";
    std::ofstream out(padded_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.write("\0\0\0\0\0\0\0\0", 8);
    ASSERT_TRUE(out.good());
    out.close();
    EXPECT_FALSE(
        LoadIndexSnapshotFile(padded_path, "DL", graph_, MakeOracle("DL"))
            .ok());
    std::remove(padded_path.c_str());
  }
}

}  // namespace
}  // namespace server
}  // namespace reach
