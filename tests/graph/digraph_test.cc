#include "graph/digraph.h"

#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"

namespace reach {
namespace {

TEST(DigraphTest, EmptyGraph) {
  Digraph g = Digraph::FromEdges(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(DigraphTest, BasicAdjacency) {
  Digraph g = Digraph::FromEdges(4, {{0, 1}, {0, 2}, {2, 3}, {1, 3}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  auto out0 = g.OutNeighbors(0);
  EXPECT_EQ(std::vector<Vertex>(out0.begin(), out0.end()),
            (std::vector<Vertex>{1, 2}));
  auto in3 = g.InNeighbors(3);
  EXPECT_EQ(std::vector<Vertex>(in3.begin(), in3.end()),
            (std::vector<Vertex>{1, 2}));
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(0), 0u);
  EXPECT_EQ(g.OutDegree(3), 0u);
  EXPECT_EQ(g.InDegree(3), 2u);
}

TEST(DigraphTest, DuplicateEdgesRemoved) {
  Digraph g = Digraph::FromEdges(3, {{0, 1}, {0, 1}, {1, 2}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(DigraphTest, SelfLoopsDroppedByDefault) {
  Digraph g = Digraph::FromEdges(2, {{0, 0}, {0, 1}, {1, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(DigraphTest, SelfLoopsKeptOnRequest) {
  Digraph g = Digraph::FromEdges(2, {{0, 0}, {0, 1}}, true);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 0));
}

TEST(DigraphTest, HasEdge) {
  Digraph g = Digraph::FromEdges(5, {{1, 3}, {1, 4}, {2, 3}});
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(3, 1));
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(DigraphTest, NeighborsSortedAscending) {
  Digraph g = Digraph::FromEdges(6, {{0, 5}, {0, 1}, {0, 3}, {4, 0}, {2, 0}});
  auto out = g.OutNeighbors(0);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  auto in = g.InNeighbors(0);
  EXPECT_TRUE(std::is_sorted(in.begin(), in.end()));
}

TEST(DigraphTest, CollectEdgesRoundTrip) {
  std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 0}};
  Digraph g = Digraph::FromEdges(3, edges);
  auto collected = g.CollectEdges();
  std::sort(edges.begin(), edges.end());
  EXPECT_EQ(collected, edges);
}

TEST(DigraphTest, InducedSubgraphSameIds) {
  Digraph g = Digraph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  Digraph sub = g.InducedSubgraphSameIds({0, 1, 4});
  EXPECT_EQ(sub.num_vertices(), 5u);  // Same id space.
  EXPECT_TRUE(sub.HasEdge(0, 1));
  EXPECT_TRUE(sub.HasEdge(0, 4));
  EXPECT_FALSE(sub.HasEdge(1, 2));
  EXPECT_FALSE(sub.HasEdge(2, 3));
  EXPECT_EQ(sub.num_edges(), 2u);
}

TEST(GraphBuilderTest, GrowsVertexSpace) {
  GraphBuilder b;
  b.AddEdge(2, 7);
  EXPECT_EQ(b.num_vertices(), 8u);
  b.EnsureVertices(20);
  Digraph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_TRUE(g.HasEdge(2, 7));
}

TEST(GraphBuilderTest, MemoryAccounting) {
  GraphBuilder b(100);
  for (Vertex v = 0; v + 1 < 100; ++v) b.AddEdge(v, v + 1);
  Digraph g = b.Build();
  EXPECT_GT(g.MemoryBytes(), 99 * 2 * sizeof(Vertex));
}

// FromCsr builds the reverse CSR in target ranges, one per thread; every
// in-row must be byte-identical to the one-thread fill, and to FromEdges',
// at any count, including more threads than vertices and a hub whose
// in-row fills one range alone.
TEST(DigraphTest, FromCsrInRowsAreIdenticalAtAnyThreadCount) {
  std::vector<Edge> star;
  for (Vertex leaf = 1; leaf < 3000; ++leaf) {
    star.push_back({leaf, 0});
    star.push_back({0, leaf});
  }
  const std::vector<std::pair<std::string, Digraph>> graphs = {
      {"random", RandomDag(2000, 9000, 3)},
      {"cyclic", RandomDigraphWithCycles(1500, 6000, 200, 4)},
      {"hub", Digraph::FromEdges(3000, star)},
      {"isolated tail", Digraph::FromEdges(50, {{0, 1}, {1, 2}})},
      {"one vertex", Digraph::FromEdges(1, {})},
      {"empty", Digraph::FromEdges(0, {})},
  };
  for (const auto& [name, g] : graphs) {
    for (const int threads : {1, 2, 3, 4, 8, 13}) {
      const std::string what = name + " at " + std::to_string(threads);
      CsrVector<uint64_t> offsets = {0};
      CsrVector<Vertex> heads;
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const auto row = g.OutNeighbors(v);
        heads.insert(heads.end(), row.begin(), row.end());
        offsets.push_back(heads.size());
      }
      const Digraph got = Digraph::FromCsr(g.num_vertices(), std::move(offsets),
                                           std::move(heads), threads);
      ASSERT_EQ(got.num_vertices(), g.num_vertices()) << what;
      ASSERT_EQ(got.num_edges(), g.num_edges()) << what;
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const auto want = g.InNeighbors(v);
        const auto in = got.InNeighbors(v);
        ASSERT_EQ(std::vector<Vertex>(in.begin(), in.end()),
                  std::vector<Vertex>(want.begin(), want.end()))
            << what << ": in-row " << v;
      }
    }
  }
}

}  // namespace
}  // namespace reach
