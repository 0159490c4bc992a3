#include "tests/test_util.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "graph/topology.h"
#include "util/rng.h"

namespace reach {
namespace testing_util {

std::string TempPath(const std::string& name) {
  // TempDir() ends in a path separator.
  return ::testing::TempDir() + "reach_test." + std::to_string(::getpid()) +
         "." + name;
}

std::shared_ptr<const MappedBlob> OwnedBlob(const std::string& bytes) {
  auto blob = MappedBlob::CreateOwned(
      bytes.size(), [&bytes](std::span<std::byte> out) {
        if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
        return Status::OK();
      });
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  return blob.ok() ? *blob : nullptr;
}

std::shared_ptr<const MappedBlob> MapBytes(const std::string& bytes,
                                           const std::string& tag,
                                           bool owned) {
  const std::string path =
      TempPath(tag + (owned ? ".owned" : ".mmap") + ".blob");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(out.good()) << path;
  }
  auto blob = owned ? MappedBlob::OpenOwned(path) : MappedBlob::Open(path);
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  std::remove(path.c_str());
  return blob.ok() ? *blob : nullptr;
}

std::string SaveIndexBytes(const ReachabilityOracle& oracle) {
  std::ostringstream out(std::ios::binary);
  const Status status = oracle.SaveIndex(out);
  EXPECT_TRUE(status.ok()) << oracle.name() << ": " << status.ToString();
  return out.str();
}

std::string LabelBytes(const LabelStore& labels) {
  std::ostringstream out(std::ios::binary);
  const Status status = labels.Write(out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out.str();
}

LabelBuilder RowsOf(const LabelStore& labels) {
  LabelBuilder rows(labels.num_vertices());
  for (Vertex v = 0; v < labels.num_vertices(); ++v) {
    rows.AssignOut(v, labels.Out(v));
    rows.AssignIn(v, labels.In(v));
  }
  return rows;
}

LabelBuilder CopyOf(const LabelBuilder& rows, size_t parts) {
  LabelBuilder copy(rows.num_vertices(), parts == 0 ? rows.parts() : parts);
  for (Vertex v = 0; v < rows.num_vertices(); ++v) {
    copy.AssignOut(v, rows.Out(v));
    copy.AssignIn(v, rows.In(v));
  }
  return copy;
}

::testing::AssertionResult OracleMatchesClosure(
    const ReachabilityOracle& oracle, const Digraph& dag) {
  const StatusOr<Dag> proven = Dag::Check(dag);
  if (!proven.ok()) {
    return ::testing::AssertionFailure()
           << "not a DAG: " << proven.status().ToString();
  }
  auto tc = TransitiveClosure::Compute(*proven);
  if (!tc.ok()) {
    return ::testing::AssertionFailure()
           << "closure failed: " << tc.status().ToString();
  }
  const size_t n = dag.num_vertices();
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = 0; v < n; ++v) {
      const bool expected = tc->Reachable(u, v);
      const bool actual = oracle.Reachable(u, v);
      if (expected != actual) {
        return ::testing::AssertionFailure()
               << oracle.name() << " disagrees on (" << u << ", " << v
               << "): oracle=" << actual << " truth=" << expected;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult OracleMatchesSampled(
    const ReachabilityOracle& oracle, const Digraph& dag, size_t samples,
    uint64_t seed) {
  Rng rng(seed);
  const size_t n = dag.num_vertices();
  for (size_t i = 0; i < samples; ++i) {
    const Vertex u = static_cast<Vertex>(rng.Uniform(n));
    const Vertex v = static_cast<Vertex>(rng.Uniform(n));
    const bool expected = BfsReachable(dag, u, v);
    if (oracle.Reachable(u, v) != expected) {
      return ::testing::AssertionFailure()
             << oracle.name() << " disagrees on random pair (" << u << ", "
             << v << "), truth=" << expected;
    }
  }
  // Positive-biased samples via random forward walks.
  for (size_t i = 0; i < samples; ++i) {
    Vertex u = static_cast<Vertex>(rng.Uniform(n));
    Vertex v = u;
    for (int step = 0; step < 12; ++step) {
      auto nbrs = dag.OutNeighbors(v);
      if (nbrs.empty()) break;
      v = nbrs[rng.Uniform(nbrs.size())];
    }
    if (!oracle.Reachable(u, v)) {
      return ::testing::AssertionFailure()
             << oracle.name() << " misses walk-reachable pair (" << u << ", "
             << v << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<GraphCase> SmallPropertyGraphs() {
  std::vector<GraphCase> cases;
  cases.push_back({"empty", Digraph::FromEdges(0, {})});
  cases.push_back({"single", Digraph::FromEdges(1, {})});
  cases.push_back({"no_edges", Digraph::FromEdges(7, {})});
  cases.push_back({"single_edge", Digraph::FromEdges(2, {{0, 1}})});
  cases.push_back({"diamond", Diamond()});
  cases.push_back({"two_chains", TwoChains()});
  cases.push_back({"chain_32", ChainDag(32)});
  cases.push_back({"grid_6x6", GridDag(6, 6)});
  cases.push_back({"figure1", PaperFigure1Graph()});
  cases.push_back({"tree_120", TreeLikeDag(120, 14, 11)});
  cases.push_back({"tree_200_many_roots", TreeLikeDag(200, 0, 12, 0.3)});
  cases.push_back({"random_150", RandomDag(150, 420, 13)});
  cases.push_back({"random_dense_60", RandomDag(60, 700, 14)});
  cases.push_back({"citation_180", CitationDag(180, 3.0, 15)});
  cases.push_back({"layered_160", LayeredDag(160, 8, 2.5, 16)});
  cases.push_back({"star_200", StarForestDag(200, 17)});
  cases.push_back({"hub_140", HubDag(140, 4, 300, 18)});
  cases.push_back({"dense_layers", DenseLayersDag(5, 12, 0.35, 19)});
  return cases;
}

std::vector<GraphCase> MediumPropertyGraphs() {
  std::vector<GraphCase> cases;
  cases.push_back({"tree_2k", TreeLikeDag(2000, 220, 21)});
  cases.push_back({"random_2k", RandomDag(2000, 6000, 22)});
  cases.push_back({"citation_1500", CitationDag(1500, 4.0, 23)});
  cases.push_back({"layered_1800", LayeredDag(1800, 20, 2.0, 24)});
  cases.push_back({"star_2500", StarForestDag(2500, 25)});
  return cases;
}

}  // namespace testing_util
}  // namespace reach
