// MakeOracle registry: every advertised name constructs, unknown names are
// rejected with nullptr, and every constructed oracle answers the Figure 1
// running example exactly.

#include "baselines/factory.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/distribution_labeling.h"
#include "core/labeling_oracle.h"
#include "core/prefilter.h"
#include "tests/test_util.h"

namespace reach {
namespace {

using testing_util::OracleMatchesClosure;

TEST(FactoryTest, AdvertisedNamesAreRegistered) {
  const std::vector<std::string>& names = AllOracleNames();
  for (const char* required :
       {"DL", "HL", "TF", "2HOP", "PL", "GL", "GL*", "PT", "PT*", "INT",
        "PW8", "KR", "BFS", "BiBFS"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "registry is missing " << required;
  }
}

TEST(FactoryTest, EveryRegisteredNameConstructs) {
  for (const std::string& name : AllOracleNames()) {
    std::unique_ptr<ReachabilityOracle> oracle = MakeOracle(name);
    ASSERT_NE(oracle, nullptr) << name;
    EXPECT_FALSE(oracle->name().empty()) << name;
  }
}

// Snapshots are the labeling oracles' sealed label blob, so exactly the
// LabelingOracle subclasses save and load them.
TEST(FactoryTest, ExactlyTheLabelingOraclesSupportSnapshots) {
  std::vector<std::string> labeling;
  for (const std::string& name : AllOracleNames()) {
    std::unique_ptr<ReachabilityOracle> oracle = MakeOracle(name);
    ASSERT_NE(oracle, nullptr) << name;
    const bool is_labeling =
        dynamic_cast<const LabelingOracle*>(oracle.get()) != nullptr;
    EXPECT_EQ(oracle->SupportsSnapshot(), is_labeling) << name;
    if (is_labeling) labeling.push_back(name);
  }
  std::sort(labeling.begin(), labeling.end());
  EXPECT_EQ(labeling, (std::vector<std::string>{"2HOP", "DL", "HL", "TF"}));
}

TEST(FactoryTest, PaperNamesAreSubsetOfRegistry) {
  const std::vector<std::string>& all = AllOracleNames();
  for (const std::string& name : PaperOracleNames()) {
    EXPECT_NE(std::find(all.begin(), all.end(), name), all.end()) << name;
  }
}

TEST(FactoryTest, UnknownNamesRejectedCleanly) {
  EXPECT_EQ(MakeOracle(""), nullptr);
  EXPECT_EQ(MakeOracle("DLX"), nullptr);
  EXPECT_EQ(MakeOracle("dl"), nullptr);
  EXPECT_EQ(MakeOracle("no-such-oracle"), nullptr);
}

TEST(FactoryTest, EveryOracleRoundTripsFigure1) {
  const Digraph g = PaperFigure1Graph();
  for (const std::string& name : AllOracleNames()) {
    std::unique_ptr<ReachabilityOracle> oracle = MakeOracle(name);
    ASSERT_NE(oracle, nullptr) << name;
    Status st = oracle->Build(g);
    ASSERT_TRUE(st.ok()) << name << ": " << st.ToString();
    EXPECT_TRUE(OracleMatchesClosure(*oracle, g)) << name;
  }
}

// Every public Build refuses a cyclic graph: a DAG with one 3-cycle
// appended is turned away with InvalidArgument, and the build is recorded
// as failed. The pre-filter over DL stands for the wrapping oracles.
TEST(FactoryTest, EveryOracleRefusesACyclicGraph) {
  std::vector<Edge> edges;
  const Digraph dag = RandomDag(40, 120, 7);
  for (Vertex u = 0; u < dag.num_vertices(); ++u) {
    for (Vertex w : dag.OutNeighbors(u)) edges.push_back({u, w});
  }
  const Vertex a = 40, b = 41, c = 42;
  edges.insert(edges.end(), {{0, a}, {a, b}, {b, c}, {c, a}});
  const Digraph cyclic = Digraph::FromEdges(43, edges);

  std::vector<std::pair<std::string, std::unique_ptr<ReachabilityOracle>>>
      oracles;
  for (const std::string& name : AllOracleNames()) {
    oracles.emplace_back(name, MakeOracle(name));
  }
  oracles.emplace_back("DL+pf",
                       std::make_unique<PrefilterOracle>(
                           std::make_unique<DistributionLabelingOracle>()));
  for (auto& [name, oracle] : oracles) {
    ASSERT_NE(oracle, nullptr) << name;
    const Status st = oracle->Build(cyclic);
    EXPECT_TRUE(st.IsInvalidArgument()) << name << ": " << st.ToString();
    EXPECT_FALSE(oracle->build_stats().ok) << name;
  }
}

}  // namespace
}  // namespace reach
