#include "graph/topology.h"

#include <deque>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "graph/generators.h"

namespace reach {
namespace {

struct Family {
  std::string name;
  Digraph graph;
};

std::vector<Family> GeneratorFamilies() {
  std::vector<Family> families;
  families.push_back({"random", RandomDag(200, 600, 1)});
  families.push_back({"tree_like", TreeLikeDag(200, 20, 2)});
  families.push_back({"citation", CitationDag(200, 3.0, 3)});
  families.push_back({"layered", LayeredDag(200, 10, 2.0, 4)});
  families.push_back({"star_forest", StarForestDag(200, 5)});
  families.push_back({"hub", HubDag(200, 4, 400, 6)});
  families.push_back({"grid", GridDag(7, 9)});
  families.push_back({"dense_layers", DenseLayersDag(4, 10, 0.5, 7)});
  return families;
}

/// Longest-path depth by a queue search that needs no topological order:
/// every source (sink, when `!forward`) starts at 0, and a vertex goes
/// back on the queue whenever a longer path to it turns up.
std::vector<uint32_t> ReferenceLevels(const Digraph& g, bool forward) {
  const size_t n = g.num_vertices();
  std::vector<uint32_t> level(n, 0);
  std::deque<Vertex> queue;
  for (Vertex v = 0; v < n; ++v) {
    if ((forward ? g.InDegree(v) : g.OutDegree(v)) == 0) queue.push_back(v);
  }
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop_front();
    for (Vertex w : forward ? g.OutNeighbors(v) : g.InNeighbors(v)) {
      if (level[v] + 1 > level[w]) {
        level[w] = level[v] + 1;
        queue.push_back(w);
      }
    }
  }
  return level;
}

TEST(TopologyTest, TopologicalOrderOfChain) {
  Digraph g = ChainDag(5);
  auto order = TopologicalOrder(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<Vertex>{0, 1, 2, 3, 4}));
}

TEST(TopologyTest, CycleHasNoOrder) {
  Digraph g = Digraph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_FALSE(TopologicalOrder(g).has_value());
}

TEST(TopologyTest, DagCheckRefusesACycle) {
  // A DAG with a 3-cycle hanging off its last vertex.
  const Digraph g = Digraph::FromEdges(
      6, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 3}});
  const StatusOr<Dag> dag = Dag::Check(g);
  EXPECT_FALSE(dag.ok());
  EXPECT_TRUE(dag.status().IsInvalidArgument());
}

TEST(TopologyTest, DagCarriesKahnsOrder) {
  for (const Family& family : GeneratorFamilies()) {
    const StatusOr<Dag> dag = Dag::Check(family.graph);
    ASSERT_TRUE(dag.ok()) << family.name;
    EXPECT_EQ(&dag->graph(), &family.graph) << family.name;
    EXPECT_EQ(dag->order(), *TopologicalOrder(family.graph)) << family.name;
  }
}

TEST(TopologyTest, DagLevelsMatchAQueueSearch) {
  for (const Family& family : GeneratorFamilies()) {
    const StatusOr<Dag> dag = Dag::Check(family.graph);
    ASSERT_TRUE(dag.ok()) << family.name;
    EXPECT_EQ(dag->LongestPathLevels(/*to_sinks=*/false),
              ReferenceLevels(family.graph, /*forward=*/true))
        << family.name;
    EXPECT_EQ(dag->LongestPathLevels(/*to_sinks=*/true),
              ReferenceLevels(family.graph, /*forward=*/false))
        << family.name;
  }
}

TEST(TopologyTest, DagLevelsOfADiamond) {
  // Diamond with a tail: 0->1->3->4, 0->2->3.
  Digraph g = Digraph::FromEdges(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
  const StatusOr<Dag> dag = Dag::Check(g);
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->LongestPathLevels(/*to_sinks=*/false),
            (std::vector<uint32_t>{0, 1, 1, 2, 3}));
  EXPECT_EQ(dag->LongestPathLevels(/*to_sinks=*/true),
            (std::vector<uint32_t>{3, 2, 2, 1, 0}));
}

TEST(TopologyTest, OrderRespectsEdges) {
  Digraph g = RandomDag(400, 1200, 3);
  auto order = TopologicalOrder(g);
  ASSERT_TRUE(order.has_value());
  auto pos = OrderPositions(*order);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex w : g.OutNeighbors(u)) {
      EXPECT_LT(pos[u], pos[w]);
    }
  }
}

TEST(TopologyTest, OrderPositionsIsInverse) {
  Digraph g = RandomDag(100, 250, 4);
  auto order = TopologicalOrder(g);
  ASSERT_TRUE(order.has_value());
  auto pos = OrderPositions(*order);
  for (uint32_t i = 0; i < order->size(); ++i) {
    EXPECT_EQ(pos[(*order)[i]], i);
  }
}

TEST(TopologyTest, BfsDistances) {
  Digraph g = Digraph::FromEdges(6, {{0, 1}, {1, 2}, {0, 3}, {3, 4}, {4, 2}});
  auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);  // Via 1.
  EXPECT_EQ(dist[3], 1u);
  EXPECT_EQ(dist[4], 2u);
  EXPECT_EQ(dist[5], UINT32_MAX);
}

TEST(TopologyTest, BfsReachableBasics) {
  Digraph g = Digraph::FromEdges(4, {{0, 1}, {1, 2}});
  EXPECT_TRUE(BfsReachable(g, 0, 2));
  EXPECT_TRUE(BfsReachable(g, 1, 1));  // Reflexive.
  EXPECT_FALSE(BfsReachable(g, 2, 0));
  EXPECT_FALSE(BfsReachable(g, 0, 3));
}

}  // namespace
}  // namespace reach
