#include "graph/transitive_closure.h"

#include "gtest/gtest.h"
#include "graph/generators.h"
#include "graph/topology.h"
#include "util/rng.h"

namespace reach {
namespace {

TEST(TransitiveClosureTest, RespectsMemoryBudget) {
  Digraph g = RandomDag(1000, 2000, 1);
  auto tc = TransitiveClosure::Compute(*Dag::Check(g), /*max_bytes=*/100);
  EXPECT_FALSE(tc.ok());
  EXPECT_TRUE(tc.status().IsResourceExhausted());
}

TEST(TransitiveClosureTest, ChainClosure) {
  auto tc = TransitiveClosure::Compute(*Dag::Check(ChainDag(5)));
  ASSERT_TRUE(tc.ok());
  for (Vertex u = 0; u < 5; ++u) {
    for (Vertex v = 0; v < 5; ++v) {
      EXPECT_EQ(tc->Reachable(u, v), u <= v);
    }
  }
  EXPECT_EQ(tc->TotalPairs(), 15u);  // 5+4+3+2+1.
}

TEST(TransitiveClosureTest, Reflexive) {
  auto tc = TransitiveClosure::Compute(*Dag::Check(RandomDag(50, 100, 2)));
  ASSERT_TRUE(tc.ok());
  for (Vertex v = 0; v < 50; ++v) EXPECT_TRUE(tc->Reachable(v, v));
}

TEST(TransitiveClosureTest, MatchesBfsOnRandomDags) {
  Rng rng(3);
  for (uint64_t seed = 10; seed < 14; ++seed) {
    Digraph g = RandomDag(150, 400, seed);
    auto tc = TransitiveClosure::Compute(*Dag::Check(g));
    ASSERT_TRUE(tc.ok());
    for (int i = 0; i < 500; ++i) {
      const Vertex u = static_cast<Vertex>(rng.Uniform(150));
      const Vertex v = static_cast<Vertex>(rng.Uniform(150));
      EXPECT_EQ(tc->Reachable(u, v), BfsReachable(g, u, v))
          << "seed " << seed << " pair (" << u << "," << v << ")";
    }
  }
}

TEST(TransitiveClosureTest, ReachableSetSortedAndComplete) {
  Digraph g = Digraph::FromEdges(5, {{0, 2}, {0, 1}, {1, 3}});
  auto tc = TransitiveClosure::Compute(*Dag::Check(g));
  ASSERT_TRUE(tc.ok());
  EXPECT_EQ(tc->ReachableSet(0), (std::vector<Vertex>{0, 1, 2, 3}));
  EXPECT_EQ(tc->ReachableSet(4), (std::vector<Vertex>{4}));
}

TEST(TransitiveClosureTest, RowBitsMatchReachable) {
  Digraph g = TreeLikeDag(80, 10, 9);
  auto tc = TransitiveClosure::Compute(*Dag::Check(g));
  ASSERT_TRUE(tc.ok());
  for (Vertex u = 0; u < 80; ++u) {
    const Bitset& row = tc->Row(u);
    for (Vertex v = 0; v < 80; ++v) {
      EXPECT_EQ(row.Test(v), tc->Reachable(u, v));
    }
  }
}

// The ancestor closure is the descendant closure transposed: v is in u's
// ancestor row iff u is in v's descendant row, at every thread count and
// on the degenerate empty and one-vertex DAGs.
TEST(TransitiveClosureTest, AncestorRowsTransposeDescendantRows) {
  const Digraph graphs[] = {RandomDag(0, 0, 1),        RandomDag(1, 0, 2),
                            RandomDag(2, 1, 3),        RandomDag(90, 250, 4),
                            RandomDag(200, 1200, 5),   TreeLikeDag(120, 12, 6)};
  for (const Digraph& g : graphs) {
    const StatusOr<Dag> dag = Dag::Check(g);
    ASSERT_TRUE(dag.ok());
    const size_t n = g.num_vertices();
    auto desc = TransitiveClosure::Compute(*dag);
    ASSERT_TRUE(desc.ok());
    for (const int threads : {1, 4}) {
      auto anc = TransitiveClosure::Compute(
          *dag, /*max_bytes=*/0, threads,
          TransitiveClosure::Direction::kAncestors);
      ASSERT_TRUE(anc.ok());
      ASSERT_EQ(anc->num_vertices(), n);
      EXPECT_EQ(anc->TotalPairs(), desc->TotalPairs()) << "n " << n;
      for (Vertex u = 0; u < n; ++u) {
        for (Vertex v = 0; v < n; ++v) {
          ASSERT_EQ(anc->Row(u).Test(v), desc->Row(v).Test(u))
              << "n " << n << " threads " << threads << " pair (" << u
              << "," << v << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace reach
