#include "graph/scc.h"

#include "gtest/gtest.h"
#include "graph/generators.h"
#include "graph/topology.h"
#include "util/rng.h"

namespace reach {
namespace {

TEST(SccTest, DagHasSingletonComponents) {
  Digraph g = Digraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  size_t count = 0;
  auto comp = StronglyConnectedComponents(g, &count);
  EXPECT_EQ(count, 4u);
  // All distinct.
  std::sort(comp.begin(), comp.end());
  for (size_t i = 0; i < comp.size(); ++i) EXPECT_EQ(comp[i], i);
}

TEST(SccTest, SimpleCycleCollapses) {
  Digraph g = Digraph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
  size_t count = 0;
  auto comp = StronglyConnectedComponents(g, &count);
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
}

TEST(SccTest, TwoCyclesWithBridge) {
  // {0,1} cycle -> {2,3} cycle.
  Digraph g =
      Digraph::FromEdges(4, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}});
  Condensation c = CondenseToDag(g);
  EXPECT_EQ(c.num_components, 2u);
  EXPECT_EQ(c.component[0], c.component[1]);
  EXPECT_EQ(c.component[2], c.component[3]);
  EXPECT_NE(c.component[0], c.component[2]);
  EXPECT_EQ(c.dag.num_edges(), 1u);
  EXPECT_TRUE(c.dag.HasEdge(c.component[0], c.component[2]));
}

TEST(SccTest, CondensationIsAcyclic) {
  Digraph g = RandomDigraphWithCycles(300, 700, 200, 5);
  Condensation c = CondenseToDag(g);
  EXPECT_TRUE(Dag::Check(c.dag).ok());
}

TEST(SccTest, ComponentNumberingIsReverseTopological) {
  // Tarjan numbers a component before any component that can reach it.
  Digraph g = RandomDigraphWithCycles(200, 500, 100, 6);
  Condensation c = CondenseToDag(g);
  for (Vertex u = 0; u < c.dag.num_vertices(); ++u) {
    for (Vertex w : c.dag.OutNeighbors(u)) {
      EXPECT_LT(w, u) << "edge " << u << "->" << w;
    }
  }
}

TEST(SccTest, ReachabilityPreservedAcrossCondensation) {
  Rng rng(77);
  Digraph g = RandomDigraphWithCycles(120, 260, 60, 7);
  Condensation c = CondenseToDag(g);
  for (int i = 0; i < 300; ++i) {
    const Vertex u = static_cast<Vertex>(rng.Uniform(g.num_vertices()));
    const Vertex v = static_cast<Vertex>(rng.Uniform(g.num_vertices()));
    const bool in_g = BfsReachable(g, u, v);
    const bool in_dag = c.component[u] == c.component[v] ||
                        BfsReachable(c.dag, c.component[u], c.component[v]);
    EXPECT_EQ(in_g, in_dag) << "pair (" << u << "," << v << ")";
  }
}

TEST(SccTest, SelfLoopIsSingletonComponent) {
  Digraph g = Digraph::FromEdges(2, {{0, 0}, {0, 1}}, true);
  size_t count = 0;
  auto comp = StronglyConnectedComponents(g, &count);
  EXPECT_EQ(count, 2u);
  EXPECT_NE(comp[0], comp[1]);
}

TEST(SccTest, LongPathDoesNotOverflowStack) {
  // 200k-vertex chain with a back edge: exercises the iterative Tarjan.
  const size_t n = 200000;
  GraphBuilder b(n);
  for (Vertex v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1);
  b.AddEdge(static_cast<Vertex>(n - 1), 0);  // One giant cycle.
  Digraph g = b.Build();
  size_t count = 0;
  auto comp = StronglyConnectedComponents(g, &count);
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(comp[0], comp[n - 1]);
}

TEST(SccTest, EmptyGraph) {
  Digraph g;
  size_t count = 99;
  auto comp = StronglyConnectedComponents(g, &count);
  EXPECT_EQ(count, 0u);
  EXPECT_TRUE(comp.empty());
}

}  // namespace
}  // namespace reach
