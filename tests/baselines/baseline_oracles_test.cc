// Baseline-specific behaviours beyond the shared completeness sweep in
// tests/core/oracle_property_test.cc: structural invariants (GRAIL interval
// soundness, K-Reach vertex cover, chain decomposition), distance semantics
// (PL), budget failure modes, and SCARAB composition.

#include "gtest/gtest.h"

#include "baselines/chain_oracle.h"
#include "baselines/grail.h"
#include "baselines/interval_oracle.h"
#include "baselines/kreach.h"
#include "baselines/online_search.h"
#include "baselines/pruned_landmark.h"
#include "baselines/scarab.h"
#include "baselines/twohop.h"
#include "graph/generators.h"
#include "graph/topology.h"
#include "graph/transitive_closure.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace reach {
namespace {

// --- GRAIL ---

TEST(GrailTest, IntervalPruningIsSound) {
  // Interval non-containment must never reject a truly reachable pair.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Digraph g = RandomDag(200, 600, seed);
    GrailOracle oracle;
    ASSERT_TRUE(oracle.Build(g).ok());
    auto tc = TransitiveClosure::Compute(*Dag::Check(g));
    ASSERT_TRUE(tc.ok());
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        if (tc->Reachable(u, v)) {
          EXPECT_TRUE(oracle.IntervalsAdmit(u, v))
              << "(" << u << "," << v << ") pruned despite being reachable";
        }
      }
    }
  }
}

TEST(GrailTest, MoreLabelingsPruneMore) {
  Digraph g = RandomDag(500, 1500, 4);
  GrailOptions one;
  one.num_labelings = 1;
  GrailOptions five;
  five.num_labelings = 5;
  GrailOracle g1(one);
  GrailOracle g5(five);
  ASSERT_TRUE(g1.Build(g).ok());
  ASSERT_TRUE(g5.Build(g).ok());
  // Count pairs admitted by the labels (smaller = better pruning).
  Rng rng(5);
  size_t admit1 = 0;
  size_t admit5 = 0;
  for (int i = 0; i < 4000; ++i) {
    const Vertex u = static_cast<Vertex>(rng.Uniform(500));
    const Vertex v = static_cast<Vertex>(rng.Uniform(500));
    admit1 += g1.IntervalsAdmit(u, v);
    admit5 += g5.IntervalsAdmit(u, v);
  }
  EXPECT_LE(admit5, admit1);
  EXPECT_EQ(g5.IndexSizeIntegers(), 5u * g1.IndexSizeIntegers());
}

// --- K-Reach ---

TEST(KReachTest, CoverIsAVertexCover) {
  Digraph g = CitationDag(400, 3.0, 6);
  KReachOracle oracle;
  ASSERT_TRUE(oracle.Build(g).ok());
  EXPECT_GT(oracle.cover_size(), 0u);
  EXPECT_LE(oracle.cover_size(), g.num_vertices());
}

TEST(KReachTest, BudgetBlocksLargeCoverMatrix) {
  Digraph g = RandomDag(3000, 9000, 7);
  KReachOracle oracle;
  BuildBudget budget;
  budget.max_index_integers = 1000;
  oracle.set_budget(budget);
  EXPECT_TRUE(oracle.Build(g).IsResourceExhausted());
}

// --- Chain (PT stand-in) ---

TEST(ChainOracleTest, ChainGraphNeedsOneChain) {
  ChainOracle oracle;
  ASSERT_TRUE(oracle.Build(ChainDag(64)).ok());
  EXPECT_EQ(oracle.num_chains(), 1u);
  // Closure tables collapse to a single entry per vertex.
  EXPECT_LE(oracle.IndexSizeIntegers(), 64u * 2 + 64u * 2);
}

TEST(ChainOracleTest, AntichainNeedsManyChains) {
  // No edges: every vertex is its own chain.
  ChainOracle oracle;
  ASSERT_TRUE(oracle.Build(Digraph::FromEdges(40, {})).ok());
  EXPECT_EQ(oracle.num_chains(), 40u);
}

TEST(ChainOracleTest, BudgetAborts) {
  Digraph g = DenseLayersDag(40, 50, 0.5, 8);
  ChainOracle oracle;
  BuildBudget budget;
  budget.max_index_integers = 64;
  oracle.set_budget(budget);
  EXPECT_TRUE(oracle.Build(g).IsResourceExhausted());
}

// --- INT ---

TEST(IntervalOracleTest, ChainCompressesToOneIntervalPerVertex) {
  IntervalOracle oracle;
  ASSERT_TRUE(oracle.Build(ChainDag(100)).ok());
  EXPECT_EQ(oracle.TotalIntervals(), 100u);
}

TEST(IntervalOracleTest, TreeStaysNearLinear) {
  Digraph g = TreeLikeDag(3000, 0, 9);
  IntervalOracle oracle;
  ASSERT_TRUE(oracle.Build(g).ok());
  // Pure forests with post-order numbering compress to few intervals/vertex.
  EXPECT_LT(oracle.TotalIntervals(), 3000u * 4);
}

TEST(IntervalOracleTest, BudgetAborts) {
  Digraph g = RandomDag(4000, 20000, 10);
  IntervalOracle oracle;
  BuildBudget budget;
  budget.max_index_integers = 100;
  oracle.set_budget(budget);
  EXPECT_TRUE(oracle.Build(g).IsResourceExhausted());
}

// --- Pruned Landmark ---

TEST(PrunedLandmarkTest, DistancesMatchBfs) {
  // Sparse DAGs, then dense ones whose searches reach most vertices within
  // a few levels.
  const std::vector<Digraph> graphs = {
      RandomDag(150, 400, 11), RandomDag(150, 400, 12),
      RandomDag(150, 400, 13), RandomDag(600, 24000, 5),
      RandomDag(600, 24000, 17)};
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const Digraph& g = graphs[gi];
    PrunedLandmarkOracle oracle;
    ASSERT_TRUE(oracle.Build(g).ok());
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      auto dist = BfsDistances(g, u);
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const uint32_t expected =
            dist[v] == UINT32_MAX ? PrunedLandmarkOracle::kUnreachable
                                  : dist[v];
        EXPECT_EQ(oracle.Distance(u, v), expected)
            << "graph " << gi << " pair (" << u << "," << v << ")";
      }
    }
  }
}

TEST(PrunedLandmarkTest, DistanceOnChain) {
  PrunedLandmarkOracle oracle;
  ASSERT_TRUE(oracle.Build(ChainDag(30)).ok());
  EXPECT_EQ(oracle.Distance(0, 29), 29u);
  EXPECT_EQ(oracle.Distance(5, 5), 0u);
  EXPECT_EQ(oracle.Distance(10, 2), PrunedLandmarkOracle::kUnreachable);
}

TEST(PrunedLandmarkTest, RebuildResetsSealedState) {
  // Regression: a second Build on the same oracle must label the second
  // graph from fresh rows — a prune predicate reading the first build's
  // CSR arrays would silently mislabel it.
  PrunedLandmarkOracle oracle;
  ASSERT_TRUE(oracle.Build(RandomDag(120, 320, 31)).ok());
  Digraph g = RandomDag(140, 380, 32);
  ASSERT_TRUE(oracle.Build(g).ok());
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    auto dist = BfsDistances(g, u);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const uint32_t expected = dist[v] == UINT32_MAX
                                    ? PrunedLandmarkOracle::kUnreachable
                                    : dist[v];
      ASSERT_EQ(oracle.Distance(u, v), expected)
          << "pair (" << u << "," << v << ") after rebuild";
    }
  }
}

// --- 2HOP ---

TEST(TwoHopTest, LabelingSizeIsReasonable) {
  // The greedy should stay within a small factor of DL's size on a tree
  // (both are near-minimal there).
  Digraph g = TreeLikeDag(300, 30, 14);
  TwoHopOracle twohop;
  ASSERT_TRUE(twohop.Build(g).ok());
  EXPECT_LT(twohop.IndexSizeIntegers(), 300u * 40);
  EXPECT_GT(twohop.IndexSizeIntegers(), 0u);
}

TEST(TwoHopTest, BudgetLimitsClosureMaterialization) {
  Digraph g = RandomDag(5000, 15000, 15);
  TwoHopOracle oracle;
  BuildBudget budget;
  budget.max_index_integers = 1000;  // TC materialization alone exceeds this.
  oracle.set_budget(budget);
  EXPECT_TRUE(oracle.Build(g).IsResourceExhausted());
}

// --- SCARAB ---

TEST(ScarabTest, BackboneIsSmallerThanGraph) {
  Digraph g = TreeLikeDag(4000, 300, 16);
  ScarabOracle oracle("GL*", [] { return std::make_unique<GrailOracle>(); });
  ASSERT_TRUE(oracle.Build(g).ok());
  EXPECT_LT(oracle.backbone_size(), g.num_vertices() / 2);
  EXPECT_GT(oracle.backbone_size(), 0u);
}

TEST(ScarabTest, InnerIndexSizesWithBackbone) {
  Digraph g = TreeLikeDag(4000, 300, 17);
  GrailOracle plain;
  ASSERT_TRUE(plain.Build(g).ok());
  ScarabOracle scaled("GL*", [] { return std::make_unique<GrailOracle>(); });
  ASSERT_TRUE(scaled.Build(g).ok());
  // GRAIL's label count is linear in vertices, so the SCARAB'd inner index
  // must be proportionally smaller.
  EXPECT_LT(scaled.inner().IndexSizeIntegers(), plain.IndexSizeIntegers());
}

TEST(ScarabTest, NullInnerFactoryFails) {
  Digraph g = ChainDag(4);
  ScarabOracle oracle("X*", [] {
    return std::unique_ptr<ReachabilityOracle>();
  });
  EXPECT_TRUE(oracle.Build(g).IsInvalidArgument());
}

// --- Online search ---

TEST(OnlineSearchTest, AllKindsAgreeWithBfsTruth) {
  Digraph g = RandomDag(300, 900, 18);
  Rng rng(19);
  OnlineSearchOracle bfs(SearchKind::kBfs);
  OnlineSearchOracle dfs(SearchKind::kDfs);
  OnlineSearchOracle bi(SearchKind::kBidirectionalBfs);
  ASSERT_TRUE(bfs.Build(g).ok());
  ASSERT_TRUE(dfs.Build(g).ok());
  ASSERT_TRUE(bi.Build(g).ok());
  for (int i = 0; i < 2000; ++i) {
    const Vertex u = static_cast<Vertex>(rng.Uniform(300));
    const Vertex v = static_cast<Vertex>(rng.Uniform(300));
    const bool truth = BfsReachable(g, u, v);
    EXPECT_EQ(bfs.Reachable(u, v), truth);
    EXPECT_EQ(dfs.Reachable(u, v), truth);
    EXPECT_EQ(bi.Reachable(u, v), truth);
  }
}

TEST(OnlineSearchTest, ZeroIndexSize) {
  OnlineSearchOracle oracle;
  ASSERT_TRUE(oracle.Build(ChainDag(10)).ok());
  EXPECT_EQ(oracle.IndexSizeIntegers(), 0u);
  EXPECT_EQ(oracle.IndexSizeBytes(), 0u);
}

}  // namespace
}  // namespace reach
