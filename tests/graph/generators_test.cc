#include "graph/generators.h"

#include "gtest/gtest.h"
#include "graph/topology.h"

namespace reach {
namespace {

TEST(GeneratorsTest, Deterministic) {
  Digraph a = RandomDag(300, 900, 42);
  Digraph b = RandomDag(300, 900, 42);
  EXPECT_EQ(a.CollectEdges(), b.CollectEdges());
  Digraph c = RandomDag(300, 900, 43);
  EXPECT_NE(a.CollectEdges(), c.CollectEdges());
}

TEST(GeneratorsTest, RandomDagSizes) {
  Digraph g = RandomDag(500, 1500, 1);
  EXPECT_EQ(g.num_vertices(), 500u);
  // Sampling with dedup: allow shortfall but expect the bulk.
  EXPECT_GE(g.num_edges(), 1300u);
  EXPECT_LE(g.num_edges(), 1500u);
}

TEST(GeneratorsTest, TreeLikeIsSparse) {
  Digraph g = TreeLikeDag(1000, 50, 2);
  EXPECT_EQ(g.num_vertices(), 1000u);
  EXPECT_LE(g.num_edges(), 1050u);
  EXPECT_GE(g.num_edges(), 900u);
  EXPECT_TRUE(Dag::Check(g).ok());
}

TEST(GeneratorsTest, TreeLikeRootFractionControlsEdgeCount) {
  Digraph dense = TreeLikeDag(2000, 0, 3, 0.01);
  Digraph sparse = TreeLikeDag(2000, 0, 3, 0.5);
  EXPECT_GT(dense.num_edges(), sparse.num_edges());
  // Expected edges ~ n * (1 - root_fraction).
  EXPECT_NEAR(static_cast<double>(sparse.num_edges()), 1000.0, 120.0);
}

TEST(GeneratorsTest, CitationDagDegreeTarget) {
  Digraph g = CitationDag(2000, 4.0, 4);
  const double avg =
      static_cast<double>(g.num_edges()) / g.num_vertices();
  EXPECT_GT(avg, 2.5);
  EXPECT_LT(avg, 5.5);
  EXPECT_TRUE(Dag::Check(g).ok());
}

TEST(GeneratorsTest, CitationEdgesPointNewToOld) {
  Digraph g = CitationDag(300, 2.0, 5);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (Vertex w : g.OutNeighbors(v)) EXPECT_LT(w, v);
  }
}

TEST(GeneratorsTest, StarForestHasHubs) {
  Digraph g = StarForestDag(5000, 6);
  size_t max_out = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    max_out = std::max(max_out, g.OutDegree(v));
  }
  // Preferential attachment should concentrate fanout far above average.
  EXPECT_GT(max_out, 50u);
  EXPECT_LE(g.num_edges(), g.num_vertices());
}

TEST(GeneratorsTest, GridDagShape) {
  Digraph g = GridDag(4, 5);
  EXPECT_EQ(g.num_vertices(), 20u);
  // Edges: right (4 * 4) + down (3 * 5) = 31.
  EXPECT_EQ(g.num_edges(), 31u);
  EXPECT_TRUE(BfsReachable(g, 0, 19));
  EXPECT_FALSE(BfsReachable(g, 19, 0));
}

TEST(GeneratorsTest, ChainDagShape) {
  Digraph g = ChainDag(10);
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_TRUE(BfsReachable(g, 0, 9));
}

TEST(GeneratorsTest, DenseLayersConnectivity) {
  Digraph g = DenseLayersDag(3, 10, 1.0, 7);
  // Full bipartite joins: every layer-0 vertex reaches every layer-2 vertex.
  EXPECT_TRUE(BfsReachable(g, 0, 25));
  EXPECT_EQ(g.num_edges(), 200u);
}

TEST(GeneratorsTest, LayeredDagRespectsLayerOrder) {
  Digraph g = LayeredDag(400, 10, 2.0, 8);
  EXPECT_TRUE(Dag::Check(g).ok());
  const size_t width = 40;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (Vertex w : g.OutNeighbors(v)) {
      const size_t lv = v / width;
      const size_t lw = w / width;
      EXPECT_GT(lw, lv);
      EXPECT_LE(lw, lv + 2);
    }
  }
}

TEST(GeneratorsTest, FamilyDispatcherProducesRequestedScale) {
  for (GraphFamily family :
       {GraphFamily::kTreeLike, GraphFamily::kSparseRandom,
        GraphFamily::kCitation, GraphFamily::kLayered,
        GraphFamily::kStarForest, GraphFamily::kHub, GraphFamily::kGrid,
        GraphFamily::kChain, GraphFamily::kDenseLayers}) {
    Digraph g = GenerateFamily(family, 800, 1600, 11);
    EXPECT_TRUE(Dag::Check(g).ok()) << GraphFamilyName(family);
    EXPECT_GE(g.num_vertices(), 400u) << GraphFamilyName(family);
  }
}

TEST(GeneratorsTest, FamilyNamesAreUnique) {
  std::vector<std::string> names;
  for (GraphFamily family :
       {GraphFamily::kTreeLike, GraphFamily::kSparseRandom,
        GraphFamily::kCitation, GraphFamily::kLayered,
        GraphFamily::kStarForest, GraphFamily::kHub, GraphFamily::kGrid,
        GraphFamily::kChain, GraphFamily::kDenseLayers}) {
    names.push_back(GraphFamilyName(family));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(GeneratorsTest, CyclicGeneratorHasCycles) {
  Digraph g = RandomDigraphWithCycles(200, 400, 100, 9);
  EXPECT_FALSE(Dag::Check(g).ok());
}

}  // namespace
}  // namespace reach
