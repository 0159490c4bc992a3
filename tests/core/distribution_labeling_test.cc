#include "core/distribution_labeling.h"

#include "gtest/gtest.h"
#include "graph/generators.h"
#include "graph/transitive_closure.h"
#include "tests/test_util.h"

namespace reach {
namespace {

TEST(DistributionLabelingTest, RejectsCycles) {
  Digraph g = Digraph::FromEdges(2, {{0, 1}, {1, 0}});
  DistributionLabelingOracle oracle;
  EXPECT_TRUE(oracle.Build(g).IsInvalidArgument());
}

TEST(DistributionLabelingTest, CompleteOnSmallGraphs) {
  for (const auto& c : testing_util::SmallPropertyGraphs()) {
    DistributionLabelingOracle oracle;
    ASSERT_TRUE(oracle.Build(c.graph).ok()) << c.label;
    EXPECT_TRUE(testing_util::OracleMatchesClosure(oracle, c.graph))
        << c.label;
  }
}

TEST(DistributionLabelingTest, EveryVertexLabelsItself) {
  Digraph g = RandomDag(200, 500, 41);
  DistributionLabelingOracle oracle;
  ASSERT_TRUE(oracle.Build(g).ok());
  // Key of v is its order position; v must appear in both own labels.
  std::vector<uint32_t> key_of(g.num_vertices());
  for (uint32_t i = 0; i < oracle.order().size(); ++i) {
    key_of[oracle.order()[i]] = i;
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(SortedContains(oracle.labeling().Out(v), key_of[v]));
    EXPECT_TRUE(SortedContains(oracle.labeling().In(v), key_of[v]));
  }
}

// Theorem 4: removing ANY single hop entry breaks completeness.
TEST(DistributionLabelingTest, NonRedundancyTheorem4) {
  std::vector<Digraph> graphs;
  graphs.push_back(testing_util::Diamond());
  graphs.push_back(RandomDag(40, 100, 42));
  graphs.push_back(TreeLikeDag(50, 8, 43));
  graphs.push_back(CitationDag(45, 2.0, 44));
  for (const Digraph& g : graphs) {
    DistributionLabelingOracle oracle;
    ASSERT_TRUE(oracle.Build(g).ok());
    auto tc = TransitiveClosure::Compute(g);
    ASSERT_TRUE(tc.ok());
    const LabelStore& labels = oracle.labeling();
    const size_t n = g.num_vertices();

    // Coverage in the paper's sense: Cov(v) = TC^-1(v) x TC(v) includes the
    // reflexive pairs, so the labeling itself (not the u == v fast path)
    // must certify them — that is what makes every self-hop non-redundant.
    auto complete = [&](const LabelStore& l) {
      for (Vertex u = 0; u < n; ++u) {
        for (Vertex v = 0; v < n; ++v) {
          if (tc->Reachable(u, v) != l.Query(u, v)) return false;
        }
      }
      return true;
    };
    ASSERT_TRUE(complete(labels));

    // Remove each entry in turn and expect incompleteness. BuildIndex
    // sealed the labeling; mutate an unsealed copy (same answers).
    for (Vertex v = 0; v < n; ++v) {
      for (size_t i = 0; i < labels.Out(v).size(); ++i) {
        LabelStore mutated = labels;
        mutated.Unseal();
        auto* out = mutated.MutableOut(v);
        out->erase(out->begin() + static_cast<ptrdiff_t>(i));
        EXPECT_FALSE(complete(mutated))
            << "Lout(" << v << ") entry " << i << " was redundant";
      }
      for (size_t i = 0; i < labels.In(v).size(); ++i) {
        LabelStore mutated = labels;
        mutated.Unseal();
        auto* in = mutated.MutableIn(v);
        in->erase(in->begin() + static_cast<ptrdiff_t>(i));
        EXPECT_FALSE(complete(mutated))
            << "Lin(" << v << ") entry " << i << " was redundant";
      }
    }
  }
}

// The worked example of Section 5 (Figure 2): after distributing hop 13,
// everything reaching 13 holds it in Lout and everything reached holds it
// in Lin; the next hops only cover the *new* pairs (Lemma 2 / Theorem 2).
TEST(DistributionLabelingTest, HighestRankHopIsDistributedEverywhere) {
  Digraph g = testing_util::PaperFigure1Graph();
  DistributionLabelingOracle oracle;
  ASSERT_TRUE(oracle.Build(g).ok());
  const Vertex top = oracle.order()[0];
  auto tc = TransitiveClosure::Compute(g);
  ASSERT_TRUE(tc.ok());
  // Key 0 (the first distributed hop) appears in Lout of exactly TC^-1(top)
  // and in Lin of exactly TC(top) — nothing prunes the first hop.
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(SortedContains(oracle.labeling().Out(v), 0),
              tc->Reachable(v, top))
        << "Lout(" << v << ")";
    EXPECT_EQ(SortedContains(oracle.labeling().In(v), 0),
              tc->Reachable(top, v))
        << "Lin(" << v << ")";
  }
}

TEST(DistributionLabelingTest, AllOrdersProduceCompleteLabelings) {
  Digraph g = RandomDag(150, 400, 45);
  for (DistributionOrder order :
       {DistributionOrder::kDegreeProduct, DistributionOrder::kRandom,
        DistributionOrder::kTopological,
        DistributionOrder::kReverseDegreeProduct}) {
    DistributionOptions options;
    options.order = order;
    DistributionLabelingOracle oracle(options);
    ASSERT_TRUE(oracle.Build(g).ok()) << DistributionOrderName(order);
    EXPECT_TRUE(testing_util::OracleMatchesClosure(oracle, g))
        << DistributionOrderName(order);
  }
}

TEST(DistributionLabelingTest, RankOrderBeatsBadOrderOnLabelSize) {
  // The paper's rank function should produce smaller labelings than the
  // adversarial ascending-rank order on hub-structured graphs.
  Digraph g = CitationDag(800, 3.0, 46);
  DistributionOptions good;
  DistributionOptions bad;
  bad.order = DistributionOrder::kReverseDegreeProduct;
  DistributionLabelingOracle good_oracle(good);
  DistributionLabelingOracle bad_oracle(bad);
  ASSERT_TRUE(good_oracle.Build(g).ok());
  ASSERT_TRUE(bad_oracle.Build(g).ok());
  EXPECT_LT(good_oracle.IndexSizeIntegers(), bad_oracle.IndexSizeIntegers());
}

TEST(DistributionLabelingTest, MediumGraphSampledCorrectness) {
  for (const auto& c : testing_util::MediumPropertyGraphs()) {
    DistributionLabelingOracle oracle;
    ASSERT_TRUE(oracle.Build(c.graph).ok()) << c.label;
    EXPECT_TRUE(
        testing_util::OracleMatchesSampled(oracle, c.graph, 400, 99))
        << c.label;
  }
}

TEST(DistributionLabelingTest, BudgetAborts) {
  Digraph g = RandomDag(2000, 6000, 47);
  DistributionLabelingOracle oracle;
  BuildBudget budget;
  budget.max_index_integers = 10;  // Absurdly small.
  oracle.set_budget(budget);
  EXPECT_TRUE(oracle.Build(g).IsResourceExhausted());
}

TEST(DistributionLabelingTest, OrderNamesAreStable) {
  EXPECT_EQ(DistributionOrderName(DistributionOrder::kDegreeProduct),
            "degree_product");
  EXPECT_EQ(DistributionOrderName(DistributionOrder::kRandom), "random");
  EXPECT_EQ(DistributionOrderName(DistributionOrder::kTopological),
            "topological");
  EXPECT_EQ(
      DistributionOrderName(DistributionOrder::kReverseDegreeProduct),
      "reverse_degree_product");
}

// BuildStats splits the build into ordering, labeling and sealing; the
// three phases are disjoint slices of the build wall time.
TEST(DistributionLabelingTest, BuildStatsRecordsPhaseTimers) {
  DistributionLabelingOracle oracle;
  ASSERT_TRUE(oracle.Build(RandomDag(2000, 8000, 48)).ok());
  const BuildStats& stats = oracle.build_stats();
  EXPECT_GT(stats.label_millis, 0);
  EXPECT_GT(stats.seal_millis, 0);
  EXPECT_GE(stats.order_millis, 0);
  EXPECT_LE(stats.order_millis + stats.label_millis + stats.seal_millis,
            stats.build_millis);
}

}  // namespace
}  // namespace reach
