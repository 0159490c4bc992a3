#include "core/reachability.h"

#include "gtest/gtest.h"

#include "core/distribution_labeling.h"
#include "core/hierarchical_labeling.h"
#include "graph/generators.h"
#include "graph/topology.h"
#include "util/rng.h"

namespace reach {
namespace {

TEST(ReachabilityIndexTest, RejectsNullOracle) {
  Digraph g = ChainDag(3);
  auto index = ReachabilityIndex::Build(g, nullptr);
  EXPECT_FALSE(index.ok());
  EXPECT_TRUE(index.status().IsInvalidArgument());
}

TEST(ReachabilityIndexTest, HandlesCyclesViaCondensation) {
  // 0 <-> 1 cycle feeding 2, which feeds the 3 <-> 4 cycle.
  Digraph g =
      Digraph::FromEdges(5, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 4}, {4, 3}});
  auto index = ReachabilityIndex::Build(
      g, std::make_unique<DistributionLabelingOracle>());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->num_components(), 3u);
  // Within-SCC pairs.
  EXPECT_TRUE(index->Reachable(0, 1));
  EXPECT_TRUE(index->Reachable(1, 0));
  EXPECT_TRUE(index->Reachable(4, 3));
  // Cross-SCC pairs.
  EXPECT_TRUE(index->Reachable(0, 4));
  EXPECT_TRUE(index->Reachable(1, 2));
  EXPECT_FALSE(index->Reachable(3, 0));
  EXPECT_FALSE(index->Reachable(2, 1));
}

TEST(ReachabilityIndexTest, MatchesBfsOnRandomCyclicGraphs) {
  Rng rng(55);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Digraph g = RandomDigraphWithCycles(250, 600, 120, seed);
    auto index = ReachabilityIndex::Build(
        g, std::make_unique<HierarchicalLabelingOracle>());
    ASSERT_TRUE(index.ok());
    for (int i = 0; i < 600; ++i) {
      const Vertex u = static_cast<Vertex>(rng.Uniform(g.num_vertices()));
      const Vertex v = static_cast<Vertex>(rng.Uniform(g.num_vertices()));
      EXPECT_EQ(index->Reachable(u, v), BfsReachable(g, u, v))
          << "seed " << seed << " pair (" << u << "," << v << ")";
    }
  }
}

// A DAG is indexed in place: identity mode, with dag() the caller's graph
// itself rather than a copy, and answers in original vertex ids.
TEST(ReachabilityIndexTest, DagInputPassesThrough) {
  Digraph g = RandomDag(100, 250, 9);
  auto index = ReachabilityIndex::Build(
      g, std::make_unique<DistributionLabelingOracle>());
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index->identity_condensation());
  EXPECT_EQ(&index->dag(), &g);
  EXPECT_EQ(index->num_components(), g.num_vertices());
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    EXPECT_EQ(index->ComponentOf(u), u);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(index->Reachable(u, v), BfsReachable(g, u, v))
          << "pair (" << u << "," << v << ")";
    }
  }
}

// A cyclic graph is condensed, and the index owns the condensation: it
// keeps answering after the caller's graph is gone.
TEST(ReachabilityIndexTest, CyclicInputOwnsItsCondensation) {
  const auto build = [] {
    const Digraph g = Digraph::FromEdges(4, {{0, 1}, {1, 0}, {1, 2}, {2, 3}});
    return ReachabilityIndex::Build(
        g, std::make_unique<DistributionLabelingOracle>());
  };
  auto index = build();
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->identity_condensation());
  EXPECT_EQ(index->num_components(), 3u);
  EXPECT_EQ(index->dag().num_vertices(), 3u);
  EXPECT_EQ(index->dag().num_edges(), 2u);
  EXPECT_TRUE(Dag::Check(index->dag()).ok());
  EXPECT_TRUE(index->Reachable(1, 0));
  EXPECT_TRUE(index->Reachable(0, 3));
  EXPECT_FALSE(index->Reachable(3, 2));
}

TEST(ReachabilityIndexTest, ExposesComponentMapping) {
  Digraph g = Digraph::FromEdges(3, {{0, 1}, {1, 0}, {1, 2}});
  auto index = ReachabilityIndex::Build(
      g, std::make_unique<DistributionLabelingOracle>());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->ComponentOf(0), index->ComponentOf(1));
  EXPECT_NE(index->ComponentOf(0), index->ComponentOf(2));
  EXPECT_EQ(index->oracle().name(), "DL");
}

}  // namespace
}  // namespace reach
