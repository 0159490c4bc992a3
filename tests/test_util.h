// Shared helpers for the test suite: canonical small graphs, ground-truth
// comparison against the materialized transitive closure, and the list of
// graph configurations used by the parameterized property sweeps.

#ifndef REACH_TESTS_TEST_UTIL_H_
#define REACH_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/label_store.h"
#include "core/oracle.h"
#include "datasets/paper_examples.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "graph/transitive_closure.h"
#include "util/mapped_blob.h"

namespace reach {
namespace testing_util {

/// Re-export of the library's Figure 1(a) reconstruction for test brevity.
using ::reach::PaperFigure1Graph;

/// A diamond: 0 -> {1, 2} -> 3.
inline Digraph Diamond() {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  return b.Build();
}

/// Two disconnected chains: 0->1->2 and 3->4.
inline Digraph TwoChains() {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);
  return b.Build();
}

/// Checks `oracle` against the exact transitive closure on every ordered
/// pair. Use only for graphs of a few thousand vertices.
::testing::AssertionResult OracleMatchesClosure(const ReachabilityOracle& oracle,
                                                const Digraph& dag);

/// Checks `oracle` against BFS ground truth on `samples` random pairs plus
/// `samples` random-walk positive pairs.
::testing::AssertionResult OracleMatchesSampled(const ReachabilityOracle& oracle,
                                                const Digraph& dag,
                                                size_t samples, uint64_t seed);

/// A scratch-file path in the gtest temp dir: `name` behind this process's
/// id, so suite runs from two build trees at once never share a file.
/// `name` must still be unique among the tests of one binary.
std::string TempPath(const std::string& name);

/// `bytes` copied into an owned, 64-byte-aligned MappedBlob: the heap twin
/// of mapping a file that holds them. Fails the current test (and returns
/// null) when the blob cannot be allocated.
std::shared_ptr<const MappedBlob> OwnedBlob(const std::string& bytes);

/// Writes `bytes` to a fresh file under the gtest temp dir and opens it as
/// a MappedBlob: an mmap, or with `owned` the whole-file read
/// (MappedBlob::OpenOwned). The file is unlinked before returning — a
/// mapping keeps it alive (POSIX), which doubles as a check that nothing
/// re-opens the path. `tag` names the file and must be unique among
/// concurrently running tests. Fails the current test (and returns null)
/// on any error.
std::shared_ptr<const MappedBlob> MapBytes(const std::string& bytes,
                                           const std::string& tag,
                                           bool owned = false);

/// The snapshot bytes `oracle.SaveIndex` writes; fails the current test
/// when the save fails.
std::string SaveIndexBytes(const ReachabilityOracle& oracle);

/// The RLSTORE3 bytes `labels.Write` writes; fails the current test when
/// the write fails.
std::string LabelBytes(const LabelStore& labels);

/// A builder holding a copy of `labels`' rows, as the build phase left
/// them before sealing.
LabelBuilder RowsOf(const LabelStore& labels);

/// A builder with the same rows and row partitions as `rows`.
LabelBuilder CopyOf(const LabelBuilder& rows);

/// Graph configurations for the property sweeps.
struct GraphCase {
  std::string label;
  Digraph graph;
};

/// Small graphs (n <= ~300) spanning every generator family plus
/// hand-crafted corner cases. Exhaustive all-pairs checks are feasible.
std::vector<GraphCase> SmallPropertyGraphs();

/// Medium graphs (n ~ 1-3k) for sampled checks.
std::vector<GraphCase> MediumPropertyGraphs();

}  // namespace testing_util
}  // namespace reach

#endif  // REACH_TESTS_TEST_UTIL_H_
