#include "query/workload.h"

#include "gtest/gtest.h"

#include "baselines/online_search.h"
#include "core/distribution_labeling.h"
#include "graph/generators.h"
#include "graph/topology.h"

namespace reach {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dag_ = RandomDag(500, 1500, 77);
    ASSERT_TRUE(truth_.Build(dag_).ok());
  }

  Digraph dag_;
  OnlineSearchOracle truth_;
};

TEST_F(WorkloadTest, EqualWorkloadIsBalanced) {
  WorkloadOptions options;
  options.num_queries = 2000;
  Workload w = MakeEqualWorkload(dag_, truth_, options);
  EXPECT_EQ(w.queries.size(), 2000u);
  EXPECT_EQ(w.PositiveCount(), 1000u);
}

TEST_F(WorkloadTest, EqualWorkloadGroundTruthIsCorrect) {
  WorkloadOptions options;
  options.num_queries = 500;
  Workload w = MakeEqualWorkload(dag_, truth_, options);
  for (const Query& q : w.queries) {
    EXPECT_EQ(BfsReachable(dag_, q.from, q.to), q.reachable)
        << "(" << q.from << "," << q.to << ")";
  }
}

TEST_F(WorkloadTest, RandomWorkloadGroundTruthIsCorrect) {
  WorkloadOptions options;
  options.num_queries = 500;
  Workload w = MakeRandomWorkload(dag_, truth_, options);
  EXPECT_EQ(w.queries.size(), 500u);
  for (const Query& q : w.queries) {
    EXPECT_EQ(BfsReachable(dag_, q.from, q.to), q.reachable);
  }
}

TEST_F(WorkloadTest, RandomWorkloadIsMostlyNegativeOnSparseDag) {
  WorkloadOptions options;
  options.num_queries = 2000;
  Workload w = MakeRandomWorkload(dag_, truth_, options);
  // The paper's observation: random pairs on sparse DAGs rarely reach.
  EXPECT_LT(w.PositiveCount(), w.queries.size() / 4);
}

TEST_F(WorkloadTest, Deterministic) {
  WorkloadOptions options;
  options.num_queries = 300;
  Workload a = MakeEqualWorkload(dag_, truth_, options);
  Workload b = MakeEqualWorkload(dag_, truth_, options);
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].from, b.queries[i].from);
    EXPECT_EQ(a.queries[i].to, b.queries[i].to);
  }
  options.seed = 8;
  Workload c = MakeEqualWorkload(dag_, truth_, options);
  bool any_diff = false;
  for (size_t i = 0; i < a.queries.size(); ++i) {
    any_diff |= a.queries[i].from != c.queries[i].from ||
                a.queries[i].to != c.queries[i].to;
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(WorkloadTest, VerifyWorkloadDetectsWrongOracle) {
  WorkloadOptions options;
  options.num_queries = 200;
  Workload w = MakeEqualWorkload(dag_, truth_, options);

  DistributionLabelingOracle good;
  ASSERT_TRUE(good.Build(dag_).ok());
  Query mismatch{0, 0, false};
  EXPECT_TRUE(VerifyWorkload(good, w, &mismatch));

  // An oracle built for a DIFFERENT graph should fail verification.
  DistributionLabelingOracle bad;
  ASSERT_TRUE(bad.Build(RandomDag(500, 1500, 123)).ok());
  EXPECT_FALSE(VerifyWorkload(bad, w, &mismatch));
}

TEST(WorkloadEdgeCaseTest, EmptyGraph) {
  Digraph empty = Digraph::FromEdges(0, {});
  OnlineSearchOracle truth;
  ASSERT_TRUE(truth.Build(empty).ok());
  WorkloadOptions options;
  options.num_queries = 10;
  EXPECT_TRUE(MakeEqualWorkload(empty, truth, options).queries.empty());
  EXPECT_TRUE(MakeRandomWorkload(empty, truth, options).queries.empty());
}

// One vertex has no pair u != v: no positive, no negative, and the
// bounded negative sampling must give up instead of spinning.
TEST(WorkloadEdgeCaseTest, SingleVertexGraph) {
  Digraph one = Digraph::FromEdges(1, {});
  OnlineSearchOracle truth;
  ASSERT_TRUE(truth.Build(one).ok());
  WorkloadOptions options;
  options.num_queries = 10;
  EXPECT_TRUE(MakeEqualWorkload(one, truth, options).queries.empty());
  const Workload random = MakeRandomWorkload(one, truth, options);
  EXPECT_EQ(random.queries.size(), 10u);
  for (const Query& q : random.queries) {
    EXPECT_EQ(q.from, 0u);
    EXPECT_EQ(q.to, 0u);
    EXPECT_TRUE(q.reachable);
  }
}

TEST(WorkloadEdgeCaseTest, ZeroQueries) {
  Digraph g = RandomDag(20, 40, 1);
  OnlineSearchOracle truth;
  ASSERT_TRUE(truth.Build(g).ok());
  WorkloadOptions options;
  options.num_queries = 0;
  EXPECT_TRUE(MakeEqualWorkload(g, truth, options).queries.empty());
  EXPECT_TRUE(MakeRandomWorkload(g, truth, options).queries.empty());
}

TEST(WorkloadEdgeCaseTest, EdgeFreeGraph) {
  Digraph g = Digraph::FromEdges(10, {});
  OnlineSearchOracle truth;
  ASSERT_TRUE(truth.Build(g).ok());
  WorkloadOptions options;
  options.num_queries = 50;
  Workload w = MakeEqualWorkload(g, truth, options);
  // No positives exist (beyond reflexive); workload degrades to negatives.
  EXPECT_EQ(w.queries.size(), 50u);
  EXPECT_EQ(w.PositiveCount(), 0u);
  // Random pairs on an edge-free graph reach only when u == v.
  const Workload random = MakeRandomWorkload(g, truth, options);
  EXPECT_EQ(random.queries.size(), 50u);
  for (const Query& q : random.queries) {
    EXPECT_EQ(q.reachable, q.from == q.to) << q.from << "," << q.to;
  }
}

}  // namespace
}  // namespace reach
