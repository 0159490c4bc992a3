#include "core/hierarchical_labeling.h"

#include <string>

#include "gtest/gtest.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace reach {
namespace {

TEST(HierarchicalLabelingTest, RejectsCycles) {
  Digraph g = Digraph::FromEdges(2, {{0, 1}, {1, 0}});
  HierarchicalLabelingOracle oracle;
  EXPECT_TRUE(oracle.Build(g).IsInvalidArgument());
}

TEST(HierarchicalLabelingTest, CompleteOnSmallGraphs) {
  for (const auto& c : testing_util::SmallPropertyGraphs()) {
    HierarchicalLabelingOracle oracle;
    ASSERT_TRUE(oracle.Build(c.graph).ok()) << c.label;
    EXPECT_TRUE(testing_util::OracleMatchesClosure(oracle, c.graph))
        << c.label;
  }
}

TEST(HierarchicalLabelingTest, CompleteWithMultipleRealLevels) {
  // Force the hierarchy deep by shrinking the core threshold, so the
  // level-wise labeling path (not just the core labeler) is exercised.
  for (uint64_t seed = 61; seed <= 64; ++seed) {
    Digraph g = RandomDag(400, 1100, seed);
    HierarchicalOptions options;
    options.hierarchy.core_size_threshold = 16;
    HierarchicalLabelingOracle oracle(options);
    ASSERT_TRUE(oracle.Build(g).ok());
    EXPECT_GE(oracle.hierarchy().num_levels(), 2u) << "seed " << seed;
    EXPECT_TRUE(testing_util::OracleMatchesClosure(oracle, g))
        << "seed " << seed;
  }
}

TEST(HierarchicalLabelingTest, Epsilon1TfLabelVariant) {
  for (uint64_t seed = 71; seed <= 73; ++seed) {
    Digraph g = TreeLikeDag(300, 40, seed);
    HierarchicalOptions options = HierarchicalLabelingOracle::TfLabelOptions();
    options.hierarchy.core_size_threshold = 16;
    HierarchicalLabelingOracle oracle(options);
    EXPECT_EQ(oracle.name(), "TF");
    ASSERT_TRUE(oracle.Build(g).ok());
    EXPECT_TRUE(testing_util::OracleMatchesClosure(oracle, g))
        << "seed " << seed;
  }
}

TEST(HierarchicalLabelingTest, PaperFigure1Example) {
  // Section 4's running example: the labeling must resolve, among others,
  // the worked pair facts around vertex 14 (Lin from backbone {7}, Lout
  // through backbone vertex 40).
  Digraph g = testing_util::PaperFigure1Graph();
  HierarchicalOptions options;
  options.hierarchy.core_size_threshold = 4;
  HierarchicalLabelingOracle oracle(options);
  ASSERT_TRUE(oracle.Build(g).ok());
  EXPECT_TRUE(testing_util::OracleMatchesClosure(oracle, g));
  // Spot checks from the figure: 7 -> 14 -> 29 -> 40, and 3 -> 7 -> 25 path.
  EXPECT_TRUE(oracle.Reachable(7, 14));
  EXPECT_TRUE(oracle.Reachable(14, 40));
  EXPECT_TRUE(oracle.Reachable(3, 25));
  EXPECT_FALSE(oracle.Reachable(40, 7));
  EXPECT_FALSE(oracle.Reachable(14, 7));
}

TEST(HierarchicalLabelingTest, MediumGraphSampledCorrectness) {
  for (const auto& c : testing_util::MediumPropertyGraphs()) {
    HierarchicalOptions options;
    options.hierarchy.core_size_threshold = 256;
    HierarchicalLabelingOracle oracle(options);
    ASSERT_TRUE(oracle.Build(c.graph).ok()) << c.label;
    EXPECT_TRUE(
        testing_util::OracleMatchesSampled(oracle, c.graph, 400, 98))
        << c.label;
  }
}

TEST(HierarchicalLabelingTest, LowerLevelVerticesOnlyRecordUpperHops) {
  // Paper Section 3: each vertex records hops of level >= its own level.
  Digraph g = RandomDag(800, 2400, 81);
  HierarchicalOptions options;
  options.hierarchy.core_size_threshold = 32;
  HierarchicalLabelingOracle oracle(options);
  ASSERT_TRUE(oracle.Build(g).ok());
  const Hierarchy& h = oracle.hierarchy();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (uint32_t hop : oracle.labeling().Out(v)) {
      EXPECT_GE(h.LevelOf(hop), h.LevelOf(v))
          << "hop " << hop << " in Lout(" << v << ")";
    }
    for (uint32_t hop : oracle.labeling().In(v)) {
      EXPECT_GE(h.LevelOf(hop), h.LevelOf(v))
          << "hop " << hop << " in Lin(" << v << ")";
    }
  }
}

// Build frees the level graphs once the labels are built, but what tests
// and examples read of the decomposition still answers as a fresh
// Hierarchy::Build over the same DAG does.
TEST(HierarchicalLabelingTest, HierarchyAccessorsAnswerAfterBuild) {
  const Digraph g = RandomDag(800, 2400, 81);
  HierarchicalOptions options;
  options.hierarchy.core_size_threshold = 32;
  HierarchicalLabelingOracle oracle(options);
  ASSERT_TRUE(oracle.Build(g).ok());
  const StatusOr<Dag> dag = Dag::Check(g);
  ASSERT_TRUE(dag.ok());
  const StatusOr<Hierarchy> fresh = Hierarchy::Build(*dag, options.hierarchy);
  ASSERT_TRUE(fresh.ok());

  const Hierarchy& h = oracle.hierarchy();
  ASSERT_GE(h.num_levels(), 2u);
  ASSERT_EQ(h.num_levels(), fresh->num_levels());
  EXPECT_EQ(h.epsilon(), fresh->epsilon());
  for (size_t i = 0; i < h.num_levels(); ++i) {
    EXPECT_EQ(h.LevelVertices(i), fresh->LevelVertices(i)) << "level " << i;
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(h.LevelOf(v), fresh->LevelOf(v)) << "vertex " << v;
  }
#ifndef NDEBUG
  // The build's thread pool is running: fork into a fresh process for the
  // death test, and leave the flag as the other tests found it.
  const std::string style = ::testing::GTEST_FLAG(death_test_style);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(h.LevelGraph(0), "ReleaseLevelGraphs");
  ::testing::GTEST_FLAG(death_test_style) = style;
#endif
}

// BuildStats splits the build into ordering, labeling and sealing; the
// three phases are disjoint slices of the build wall time.
TEST(HierarchicalLabelingTest, BuildStatsRecordsPhaseTimers) {
  HierarchicalLabelingOracle oracle;
  ASSERT_TRUE(oracle.Build(RandomDag(2000, 8000, 48)).ok());
  const BuildStats& stats = oracle.build_stats();
  EXPECT_GT(stats.label_millis, 0);
  EXPECT_GT(stats.seal_millis, 0);
  EXPECT_GE(stats.order_millis, 0);
  EXPECT_LE(stats.order_millis + stats.label_millis + stats.seal_millis,
            stats.build_millis);
}

// The core is labeled by DL, so the build names DL's hop order.
TEST(HierarchicalLabelingTest, BuildStatsNamesTheCoreOrder) {
  HierarchicalLabelingOracle oracle;
  ASSERT_TRUE(oracle.Build(RandomDag(2000, 8000, 48)).ok());
  EXPECT_EQ(oracle.build_stats().order, "cover_per_cost");
}

}  // namespace
}  // namespace reach
