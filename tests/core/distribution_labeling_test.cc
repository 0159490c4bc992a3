#include "core/distribution_labeling.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "datasets/registry.h"
#include "graph/generators.h"
#include "graph/scc.h"
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
    EXPECT_TRUE(
        std::ranges::binary_search(oracle.labeling().Out(v), key_of[v]));
    EXPECT_TRUE(
        std::ranges::binary_search(oracle.labeling().In(v), key_of[v]));
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
    auto tc = TransitiveClosure::Compute(*Dag::Check(g));
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

    // Remove each entry in turn and expect incompleteness: the sealed rows
    // minus that entry, refilled into a builder and sealed again.
    const auto without = [&](Vertex v, size_t i, bool out_side) {
      LabelBuilder rows = testing_util::RowsOf(labels);
      const std::span<const uint32_t> keys =
          out_side ? rows.Out(v) : rows.In(v);
      std::vector<uint32_t> row(keys.begin(), keys.end());
      row.erase(row.begin() + static_cast<ptrdiff_t>(i));
      if (out_side) {
        rows.AssignOut(v, row);
      } else {
        rows.AssignIn(v, row);
      }
      return std::move(rows).Seal();
    };
    for (Vertex v = 0; v < n; ++v) {
      for (size_t i = 0; i < labels.Out(v).size(); ++i) {
        EXPECT_FALSE(complete(without(v, i, /*out_side=*/true)))
            << "Lout(" << v << ") entry " << i << " was redundant";
      }
      for (size_t i = 0; i < labels.In(v).size(); ++i) {
        EXPECT_FALSE(complete(without(v, i, /*out_side=*/false)))
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
  auto tc = TransitiveClosure::Compute(*Dag::Check(g));
  ASSERT_TRUE(tc.ok());
  // Key 0 (the first distributed hop) appears in Lout of exactly TC^-1(top)
  // and in Lin of exactly TC(top) — nothing prunes the first hop.
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(std::ranges::binary_search(oracle.labeling().Out(v), 0u),
              tc->Reachable(v, top))
        << "Lout(" << v << ")";
    EXPECT_EQ(std::ranges::binary_search(oracle.labeling().In(v), 0u),
              tc->Reachable(top, v))
        << "Lin(" << v << ")";
  }
}

TEST(DistributionLabelingTest, AllOrdersProduceCompleteLabelings) {
  Digraph g = RandomDag(150, 400, 45);
  for (DistributionOrder order :
       {DistributionOrder::kDegreeProduct, DistributionOrder::kRandom,
        DistributionOrder::kTopological,
        DistributionOrder::kReverseDegreeProduct,
        DistributionOrder::kCoverPerCost}) {
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
  EXPECT_EQ(DistributionOrderName(DistributionOrder::kCoverPerCost),
            "cover_per_cost");
}

// The sketched cover-per-cost rank is the default, and the build names it.
TEST(DistributionLabelingTest, CoverPerCostIsTheDefault) {
  EXPECT_EQ(DistributionOptions().order, DistributionOrder::kCoverPerCost);
  DistributionLabelingOracle oracle;
  ASSERT_TRUE(oracle.Build(CitationDag(500, 3.0, 49)).ok());
  EXPECT_EQ(oracle.build_stats().order, "cover_per_cost");
}

// On every small registry stand-in the default order labels with at most
// as many integers as the paper's rank.
TEST(DistributionLabelingTest, CoverPerCostNeverLargerThanDegreeProduct) {
  DistributionOptions paper;
  paper.order = DistributionOrder::kDegreeProduct;
  for (const DatasetSpec& spec : SmallDatasets()) {
    const Digraph g = CondenseToDag(MakeDataset(spec)).dag;
    DistributionLabelingOracle cover;
    DistributionLabelingOracle degree(paper);
    ASSERT_TRUE(cover.Build(g).ok()) << spec.name;
    ASSERT_TRUE(degree.Build(g).ok()) << spec.name;
    EXPECT_LE(cover.IndexSizeIntegers(), degree.IndexSizeIntegers())
        << spec.name;
  }
}

// Complete bipartite edges between consecutive layers make nearly every
// pair comparable: the mean (a+d) / n is far above 1/2, so the default
// falls back to the paper's rank and says so.
TEST(DistributionLabelingTest, DenseClosureFallsBackToDegreeProduct) {
  constexpr Vertex kLayers = 6;
  constexpr Vertex kWidth = 40;
  std::vector<Edge> edges;
  for (Vertex layer = 0; layer + 1 < kLayers; ++layer) {
    for (Vertex a = 0; a < kWidth; ++a) {
      for (Vertex b = 0; b < kWidth; ++b) {
        edges.push_back({layer * kWidth + a, (layer + 1) * kWidth + b});
      }
    }
  }
  const Digraph g = Digraph::FromEdges(kLayers * kWidth, edges);
  DistributionOptions paper;
  paper.order = DistributionOrder::kDegreeProduct;
  DistributionLabelingOracle cover;
  DistributionLabelingOracle degree(paper);
  ASSERT_TRUE(cover.Build(g).ok());
  ASSERT_TRUE(degree.Build(g).ok());
  EXPECT_EQ(cover.order(), degree.order());
  EXPECT_EQ(cover.build_stats().order, "degree_product");
}

TEST(DistributionLabelingTest, OrderIsThreadCountInvariant) {
  // Wide enough that every parallel sweep splits into several chunks.
  const Digraph g = CitationDag(20000, 3.0, 50);
  const Dag dag = Dag::Check(g).value();
  std::vector<Vertex> members(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) members[v] = v;
  const std::vector<Vertex> reference =
      ComputeDistributionOrder(dag, members, DistributionOptions(), 1);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(ComputeDistributionOrder(dag, members, DistributionOptions(),
                                       threads),
              reference)
        << threads << " threads";
  }
}

// Every order is a permutation of the members, whatever order they come
// in. A chain's closure is dense, so kCoverPerCost falls back to the
// paper's rank there; every other policy is applied as asked. (A cyclic
// graph cannot get here: only a Dag reaches ComputeDistributionOrder.)
TEST(DistributionLabelingTest, EveryOrderIsAPermutation) {
  const Digraph g = Digraph::FromEdges(3, {{0, 1}, {1, 2}});
  const Dag dag = Dag::Check(g).value();
  const std::vector<Vertex> members = {2, 0, 1};
  for (DistributionOrder order :
       {DistributionOrder::kDegreeProduct, DistributionOrder::kRandom,
        DistributionOrder::kTopological,
        DistributionOrder::kReverseDegreeProduct,
        DistributionOrder::kCoverPerCost}) {
    DistributionOptions options;
    options.order = order;
    DistributionOrder applied = order;
    std::vector<Vertex> result =
        ComputeDistributionOrder(dag, members, options, 1, &applied);
    std::sort(result.begin(), result.end());
    EXPECT_EQ(result, (std::vector<Vertex>{0, 1, 2}))
        << DistributionOrderName(order);
    if (order == DistributionOrder::kCoverPerCost) {
      EXPECT_EQ(applied, DistributionOrder::kDegreeProduct)
          << DistributionOrderName(order);
    } else {
      EXPECT_EQ(applied, order) << DistributionOrderName(order);
    }
  }
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
