// The threading contract, enforced: for every registered oracle, building
// with 1, 2, and 8 construction threads must produce a byte-identical index
// (checked exactly where label storage is exposed, and via BuildStats
// integers + query answers everywhere) — see docs/ARCHITECTURE.md,
// "Threading contract". The graphs are large enough to push the parallel
// sweeps past their sequential-fallback cutoffs.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "baselines/factory.h"
#include "baselines/twohop.h"
#include "core/distribution_labeling.h"
#include "core/hierarchical_labeling.h"
#include "core/oracle.h"
#include "core/prefilter.h"
#include "graph/generators.h"
#include "graph/transitive_closure.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace reach {
namespace {

BuildOptions WithThreads(int threads) {
  BuildOptions options;
  options.threads = threads;
  return options;
}

// Sampled query pairs: deterministic, spread over the id space.
std::vector<std::pair<Vertex, Vertex>> SamplePairs(size_t n, size_t count,
                                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Vertex, Vertex>> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<Vertex>(rng.Uniform(n)),
                       static_cast<Vertex>(rng.Uniform(n)));
  }
  return pairs;
}

class BuildDeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BuildDeterminismTest, StatsAndAnswersAreThreadCountInvariant) {
  const std::string method = GetParam();
  // Dense enough that DL/PL frontiers exceed the level-BFS parallel cutoff
  // and 2HOP in-sides exceed the endpoint cutoff.
  const Digraph dag = RandomDag(600, 3000, /*seed=*/7);
  const auto pairs = SamplePairs(dag.num_vertices(), 2000, /*seed=*/13);

  std::unique_ptr<ReachabilityOracle> reference = MakeOracle(method);
  ASSERT_NE(reference, nullptr);
  ASSERT_TRUE(reference->Build(dag, WithThreads(1)).ok());
  EXPECT_EQ(reference->build_stats().threads, 1);

  for (const int threads : {2, 8}) {
    std::unique_ptr<ReachabilityOracle> oracle = MakeOracle(method);
    ASSERT_NE(oracle, nullptr);
    ASSERT_TRUE(oracle->Build(dag, WithThreads(threads)).ok())
        << method << " with " << threads << " threads";
    EXPECT_EQ(oracle->build_stats().threads, threads);
    // The integer stats are exact mirror images of the stored index, so
    // equality here means the index has the same size in integers AND in
    // (capacity-independent) content metrics.
    EXPECT_EQ(oracle->build_stats().index_integers,
              reference->build_stats().index_integers)
        << method << " with " << threads << " threads";
    EXPECT_EQ(oracle->IndexSizeIntegers(), reference->IndexSizeIntegers());
    for (const auto& [u, v] : pairs) {
      ASSERT_EQ(oracle->Reachable(u, v), reference->Reachable(u, v))
          << method << " threads=" << threads << " pair (" << u << ", " << v
          << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOracles, BuildDeterminismTest,
    ::testing::ValuesIn(AllOracleNames()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      // "GL*" etc. are not valid test names.
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '*') c = 'x';
      }
      return name;
    });

// Where label storage is exposed, check byte-level equality outright:
// logical label equality AND identical serialized sealed blobs (the
// snapshot a server would save must not depend on the thread count). DL
// and HL give their label builder one row partition per thread: 3 deals
// the row blocks unevenly, 4 is the benchmark's width.

// The label search reads the labels of earlier batches only, so its probe
// counters are as thread-count invariant as the labels themselves.
void ExpectSameProbeCounts(const BuildStats& parallel,
                           const BuildStats& sequential, int threads) {
  EXPECT_GT(sequential.probes, 0u);
  EXPECT_GT(sequential.pruned, 0u);
  EXPECT_GT(sequential.row_keys_read, 0u);
  EXPECT_EQ(parallel.probes, sequential.probes) << threads;
  EXPECT_EQ(parallel.pruned, sequential.pruned) << threads;
  EXPECT_EQ(parallel.row_keys_read, sequential.row_keys_read) << threads;
}

TEST(BuildDeterminismExactTest, DistributionLabelingIsByteIdentical) {
  const Digraph dag = RandomDag(800, 4000, 21);
  DistributionLabelingOracle sequential;
  ASSERT_TRUE(sequential.Build(dag, WithThreads(1)).ok());
  for (const int threads : {2, 3, 4, 8}) {
    DistributionLabelingOracle parallel;
    ASSERT_TRUE(parallel.Build(dag, WithThreads(threads)).ok());
    EXPECT_EQ(parallel.order(), sequential.order()) << threads;
    EXPECT_TRUE(parallel.labeling() == sequential.labeling())
        << "DL labels differ at threads=" << threads;
    EXPECT_EQ(testing_util::LabelBytes(parallel.labeling()),
              testing_util::LabelBytes(sequential.labeling()))
        << "DL sealed blob differs at threads=" << threads;
    ExpectSameProbeCounts(parallel.build_stats(), sequential.build_stats(),
                          threads);
  }
}

TEST(BuildDeterminismExactTest, HierarchicalLabelingIsByteIdentical) {
  const Digraph dag = RandomDag(800, 4000, 22);
  HierarchicalLabelingOracle sequential;
  ASSERT_TRUE(sequential.Build(dag, WithThreads(1)).ok());
  for (const int threads : {2, 3, 4, 8}) {
    HierarchicalLabelingOracle parallel;
    ASSERT_TRUE(parallel.Build(dag, WithThreads(threads)).ok());
    EXPECT_TRUE(parallel.labeling() == sequential.labeling())
        << "HL labels differ at threads=" << threads;
    EXPECT_EQ(testing_util::LabelBytes(parallel.labeling()),
              testing_util::LabelBytes(sequential.labeling()))
        << "HL sealed blob differs at threads=" << threads;
    ExpectSameProbeCounts(parallel.build_stats(), sequential.build_stats(),
                          threads);
  }
}

TEST(BuildDeterminismExactTest, TwoHopLabelStoreIsByteIdentical) {
  const Digraph dag = RandomDag(400, 1600, 23);
  TwoHopOracle sequential;
  ASSERT_TRUE(sequential.Build(dag, WithThreads(1)).ok());
  for (const int threads : {2, 3, 4, 8}) {
    TwoHopOracle parallel;
    ASSERT_TRUE(parallel.Build(dag, WithThreads(threads)).ok());
    EXPECT_TRUE(parallel.labeling() == sequential.labeling())
        << "2HOP labels differ at threads=" << threads;
    EXPECT_EQ(testing_util::LabelBytes(parallel.labeling()),
              testing_util::LabelBytes(sequential.labeling()))
        << "2HOP sealed blob differs at threads=" << threads;
  }
}

// The pre-filter tier builds its records sequentially by design, so the
// serialized snapshot — which holds every aux column — must be
// byte-identical for any construction thread count.
TEST(BuildDeterminismExactTest, PrefilterAuxArraysAreByteIdentical) {
  const Digraph dag = RandomDag(600, 3000, 24);
  PrefilterOracle sequential(std::make_unique<DistributionLabelingOracle>());
  ASSERT_TRUE(sequential.Build(dag, WithThreads(1)).ok());
  std::stringstream ref_blob(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(sequential.SaveIndex(ref_blob).ok());
  for (const int threads : {2, 8}) {
    PrefilterOracle parallel(std::make_unique<DistributionLabelingOracle>());
    ASSERT_TRUE(parallel.Build(dag, WithThreads(threads)).ok());
    std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(parallel.SaveIndex(blob).ok());
    EXPECT_EQ(blob.str(), ref_blob.str())
        << "prefilter snapshot differs at threads=" << threads;
  }
}

TEST(BuildDeterminismExactTest, TransitiveClosureRowsAreBitIdentical) {
  for (const uint64_t seed : {3u, 4u}) {
    const Digraph dag = RandomDag(700, 3500, seed);
    const Dag proven = Dag::Check(dag).value();
    const auto sequential = TransitiveClosure::Compute(proven, 0, 1);
    ASSERT_TRUE(sequential.ok());
    for (const int threads : {2, 8}) {
      const auto parallel = TransitiveClosure::Compute(proven, 0, threads);
      ASSERT_TRUE(parallel.ok());
      ASSERT_EQ(parallel->num_vertices(), sequential->num_vertices());
      for (Vertex v = 0; v < dag.num_vertices(); ++v) {
        ASSERT_TRUE(parallel->Row(v) == sequential->Row(v))
            << "row " << v << " differs at threads=" << threads;
      }
    }
  }
}

// The paper-example graph, end to end: every oracle, full pair matrix.
TEST(BuildDeterminismExactTest, PaperExampleFullMatrixAcrossThreadCounts) {
  const Digraph dag = testing_util::PaperFigure1Graph();
  const size_t n = dag.num_vertices();
  for (const std::string& method : AllOracleNames()) {
    std::unique_ptr<ReachabilityOracle> reference = MakeOracle(method);
    ASSERT_TRUE(reference->Build(dag, WithThreads(1)).ok()) << method;
    std::unique_ptr<ReachabilityOracle> parallel = MakeOracle(method);
    ASSERT_TRUE(parallel->Build(dag, WithThreads(8)).ok()) << method;
    EXPECT_EQ(parallel->build_stats().index_integers,
              reference->build_stats().index_integers)
        << method;
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = 0; v < n; ++v) {
        ASSERT_EQ(parallel->Reachable(u, v), reference->Reachable(u, v))
            << method << " pair (" << u << ", " << v << ")";
      }
    }
  }
}

}  // namespace
}  // namespace reach
