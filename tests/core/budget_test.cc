// BuildBudget semantics: a zero budget means unlimited, and a tiny
// size/time budget makes index construction abort with ResourceExhausted —
// the mechanism behind the paper's "--" (did not finish) table entries.

#include <memory>
#include <string>

#include "gtest/gtest.h"

#include "baselines/factory.h"
#include "core/oracle.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace reach {
namespace {

// Oracles whose Build() enforces the budget at checkpoints. The online
// searchers (BFS/BiBFS) build no index, so they are exempt by design.
const char* const kBudgetedOracles[] = {"DL", "HL", "PT", "INT", "PW8"};

TEST(BuildBudgetTest, DefaultIsUnlimited) {
  BuildBudget budget;
  EXPECT_TRUE(budget.IsUnlimited());
  budget.max_seconds = 1.0;
  EXPECT_FALSE(budget.IsUnlimited());
  budget = BuildBudget();
  budget.max_index_integers = 1;
  EXPECT_FALSE(budget.IsUnlimited());
}

TEST(BuildBudgetTest, ZeroBudgetBuildsAndAnswers) {
  const Digraph g = RandomDag(500, 1500, /*seed=*/7);
  for (const char* name : kBudgetedOracles) {
    std::unique_ptr<ReachabilityOracle> oracle = MakeOracle(name);
    ASSERT_NE(oracle, nullptr) << name;
    oracle->set_budget(BuildBudget());  // explicit zero budget
    Status st = oracle->Build(g);
    ASSERT_TRUE(st.ok()) << name << ": " << st.ToString();
    EXPECT_TRUE(testing_util::OracleMatchesSampled(*oracle, g, /*samples=*/50,
                                                   /*seed=*/11))
        << name;
  }
}

TEST(BuildBudgetTest, TinySizeBudgetReturnsResourceExhausted) {
  // Large enough that every indexing method needs more than two integers.
  const Digraph g = RandomDag(2000, 8000, /*seed=*/13);
  for (const char* name : kBudgetedOracles) {
    std::unique_ptr<ReachabilityOracle> oracle = MakeOracle(name);
    ASSERT_NE(oracle, nullptr) << name;
    BuildBudget budget;
    budget.max_index_integers = 2;
    oracle->set_budget(budget);
    Status st = oracle->Build(g);
    EXPECT_TRUE(st.IsResourceExhausted())
        << name << " returned " << st.ToString();
  }
}

// The size budget is checked on the build-phase labels, before they are
// sealed, so an over-budget build keeps no index.
TEST(BuildBudgetTest, OverSizeBudgetBuildKeepsNoIndex) {
  const Digraph g = RandomDag(2000, 8000, /*seed=*/13);
  for (const char* name : {"DL", "HL"}) {
    std::unique_ptr<ReachabilityOracle> oracle = MakeOracle(name);
    ASSERT_NE(oracle, nullptr) << name;
    BuildBudget budget;
    budget.max_index_integers = 2;
    oracle->set_budget(budget);
    const Status st = oracle->Build(g);
    EXPECT_TRUE(st.IsResourceExhausted())
        << name << " returned " << st.ToString();
    EXPECT_EQ(oracle->IndexSizeIntegers(), 0u) << name;
  }
}

TEST(BuildBudgetTest, TinyTimeBudgetReturnsResourceExhausted) {
  const Digraph g = RandomDag(5000, 20000, /*seed=*/17);
  for (const char* name : kBudgetedOracles) {
    std::unique_ptr<ReachabilityOracle> oracle = MakeOracle(name);
    ASSERT_NE(oracle, nullptr) << name;
    BuildBudget budget;
    budget.max_seconds = 1e-12;  // elapsed time exceeds this at any checkpoint
    oracle->set_budget(budget);
    Status st = oracle->Build(g);
    EXPECT_TRUE(st.IsResourceExhausted())
        << name << " returned " << st.ToString();
  }
}

// GRAIL polls no budget while it builds. Build() still holds its finished
// index to max_seconds, so the verdict agrees with build_millis.
TEST(BuildBudgetTest, FinishedBuildPastTimeBudgetIsExceeded) {
  const Digraph g = RandomDag(5000, 20000, /*seed=*/23);
  std::unique_ptr<ReachabilityOracle> oracle = MakeOracle("GL");
  ASSERT_NE(oracle, nullptr);
  BuildBudget budget;
  budget.max_seconds = 1e-12;
  oracle->set_budget(budget);
  const Status st = oracle->Build(g);
  EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
  const BuildStats& stats = oracle->build_stats();
  EXPECT_FALSE(stats.ok);
  EXPECT_TRUE(stats.budget_exceeded);
  EXPECT_GT(stats.build_millis, budget.max_seconds * 1e3);
}

// The online searchers store no index, so no time budget applies to them.
TEST(BuildBudgetTest, OnlineSearchersAreExempt) {
  const Digraph g = RandomDag(500, 1500, /*seed=*/29);
  for (const char* name : {"BFS", "BiBFS"}) {
    std::unique_ptr<ReachabilityOracle> oracle = MakeOracle(name);
    ASSERT_NE(oracle, nullptr) << name;
    BuildBudget budget;
    budget.max_seconds = 1e-12;
    oracle->set_budget(budget);
    const Status st = oracle->Build(g);
    EXPECT_TRUE(st.ok()) << name << ": " << st.ToString();
    EXPECT_FALSE(oracle->build_stats().budget_exceeded) << name;
  }
}

TEST(BuildBudgetTest, ScarabWrapperForwardsBudget) {
  const Digraph g = RandomDag(2000, 8000, /*seed=*/19);
  for (const char* name : {"PT*"}) {
    std::unique_ptr<ReachabilityOracle> oracle = MakeOracle(name);
    ASSERT_NE(oracle, nullptr) << name;
    BuildBudget budget;
    budget.max_index_integers = 2;
    oracle->set_budget(budget);
    Status st = oracle->Build(g);
    EXPECT_TRUE(st.IsResourceExhausted())
        << name << " returned " << st.ToString();
  }
}

}  // namespace
}  // namespace reach
