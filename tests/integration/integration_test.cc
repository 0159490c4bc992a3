// End-to-end tests: dataset registry -> condensation -> index -> workload,
// cross-oracle agreement, and serialization of built label indexes.

#include <memory>
#include <sstream>

#include "gtest/gtest.h"

#include "baselines/factory.h"
#include "core/distribution_labeling.h"
#include "core/reachability.h"
#include "datasets/registry.h"
#include "graph/generators.h"
#include "graph/topology.h"
#include "query/workload.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace reach {
namespace {

TEST(DatasetRegistryTest, TableOneInventory) {
  EXPECT_EQ(SmallDatasets().size(), 14u);
  EXPECT_EQ(LargeDatasets().size(), 13u);
  for (const DatasetSpec& spec : SmallDatasets()) {
    EXPECT_FALSE(spec.large);
    EXPECT_EQ(spec.scale, 1.0) << spec.name;  // Small graphs at paper scale.
  }
  for (const DatasetSpec& spec : LargeDatasets()) {
    EXPECT_TRUE(spec.large);
    EXPECT_LT(spec.scale, 1.0) << spec.name;
    EXPECT_GE(spec.target_vertices(), 10000u) << spec.name;
  }
}

TEST(DatasetRegistryTest, FindByName) {
  auto found = FindDataset("arxiv");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->paper_vertices, 21608u);
  EXPECT_TRUE(FindDataset("no_such_graph").status().IsNotFound());
  // Lookups span the small and large tiers only.
  EXPECT_TRUE(FindDataset("mapped_1M_full").status().IsNotFound());
}

TEST(DatasetRegistryTest, SmallDatasetsMatchPaperScaleRoughly) {
  for (const DatasetSpec& spec : SmallDatasets()) {
    Digraph g = MakeDataset(spec);
    EXPECT_TRUE(Dag::Check(g).ok()) << spec.name;
    const double v_ratio =
        static_cast<double>(g.num_vertices()) / spec.paper_vertices;
    EXPECT_GT(v_ratio, 0.95) << spec.name;
    EXPECT_LT(v_ratio, 1.05) << spec.name;
    const double e_ratio =
        static_cast<double>(g.num_edges()) /
        std::max<size_t>(spec.paper_edges, 1);
    EXPECT_GT(e_ratio, 0.5) << spec.name << " edges " << g.num_edges();
    EXPECT_LT(e_ratio, 1.6) << spec.name << " edges " << g.num_edges();
  }
}

TEST(DatasetRegistryTest, DatasetsAreDeterministic) {
  auto spec = FindDataset("nasa");
  ASSERT_TRUE(spec.ok());
  Digraph a = MakeDataset(*spec);
  Digraph b = MakeDataset(*spec);
  EXPECT_EQ(a.CollectEdges(), b.CollectEdges());
}

TEST(IntegrationTest, AllOraclesAgreeOnDataset) {
  auto spec = FindDataset("reactome");  // Smallest Table-1 graph.
  ASSERT_TRUE(spec.ok());
  Digraph g = MakeDataset(*spec);

  auto truth = MakeOracle("BFS");
  ASSERT_TRUE(truth->Build(g).ok());
  WorkloadOptions options;
  options.num_queries = 400;
  Workload workload = MakeEqualWorkload(g, *truth, options);

  for (const std::string& name : PaperOracleNames()) {
    auto oracle = MakeOracle(name);
    ASSERT_TRUE(oracle->Build(g).ok()) << name;
    Query mismatch{0, 0, false};
    EXPECT_TRUE(VerifyWorkload(*oracle, workload, &mismatch))
        << name << " failed on (" << mismatch.from << "," << mismatch.to
        << ")";
  }
}

TEST(IntegrationTest, CyclicPipelineThroughFacade) {
  Digraph g = RandomDigraphWithCycles(1500, 3600, 700, 555);
  Rng rng(556);
  std::vector<std::string> names{"DL", "HL", "GL", "INT"};
  std::vector<std::unique_ptr<ReachabilityIndex>> indexes;
  for (const std::string& name : names) {
    auto index = ReachabilityIndex::Build(g, MakeOracle(name));
    ASSERT_TRUE(index.ok()) << name;
    indexes.push_back(
        std::make_unique<ReachabilityIndex>(std::move(index).value()));
  }
  for (int i = 0; i < 800; ++i) {
    const Vertex u = static_cast<Vertex>(rng.Uniform(g.num_vertices()));
    const Vertex v = static_cast<Vertex>(rng.Uniform(g.num_vertices()));
    const bool truth = BfsReachable(g, u, v);
    for (size_t k = 0; k < indexes.size(); ++k) {
      EXPECT_EQ(indexes[k]->Reachable(u, v), truth)
          << names[k] << " pair (" << u << "," << v << ")";
    }
  }
}

TEST(IntegrationTest, LabelingSerializationSurvivesReload) {
  Digraph g = RandomDag(400, 1000, 88);
  DistributionLabelingOracle oracle;
  ASSERT_TRUE(oracle.Build(g).ok());

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(oracle.labeling().Write(ss).ok());
  auto reloaded = LabelStore::FromMapped(
      MappedRegion{testing_util::OwnedBlob(ss.str()), 0});
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(reloaded->Validate().ok());

  Rng rng(89);
  for (int i = 0; i < 2000; ++i) {
    const Vertex u = static_cast<Vertex>(rng.Uniform(400));
    const Vertex v = static_cast<Vertex>(rng.Uniform(400));
    EXPECT_EQ(u == v || reloaded->Query(u, v), oracle.Reachable(u, v));
  }
}

TEST(IntegrationTest, IndexSnapshotRoundTripsAcrossOracles) {
  // Acceptance gate for the sealed snapshot: Save -> fresh oracle ->
  // LoadMapped answers the full query matrix identically, for every
  // snapshot-capable labeling method.
  Digraph g = RandomDag(260, 700, 90);
  for (const std::string name : {"DL", "HL", "TF", "2HOP"}) {
    auto built = MakeOracle(name);
    ASSERT_NE(built, nullptr) << name;
    ASSERT_TRUE(built->Build(g).ok()) << name;
    ASSERT_TRUE(built->SupportsSnapshot()) << name;

    const std::string bytes = testing_util::SaveIndexBytes(*built);

    auto loaded = MakeOracle(name);
    ASSERT_TRUE(loaded
                    ->LoadMapped(g.num_vertices(),
                                 MappedRegion{testing_util::OwnedBlob(bytes), 0})
                    .ok())
        << name;
    EXPECT_TRUE(loaded->build_stats().ok) << name;
    EXPECT_EQ(loaded->IndexSizeIntegers(), built->IndexSizeIntegers())
        << name;
    EXPECT_EQ(loaded->IndexSizeBytes(), built->IndexSizeBytes()) << name;
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(loaded->Reachable(u, v), built->Reachable(u, v))
            << name << " pair (" << u << "," << v << ")";
      }
    }
  }
}

// A mapped load checks the snapshot against the vertex count it is given;
// a wrong count is Corruption naming the oracle.
TEST(IntegrationTest, SnapshotLoadRejectsMismatchedGraph) {
  Digraph g = RandomDag(100, 250, 91);
  for (const std::string name : {"DL", "HL", "TF", "2HOP"}) {
    auto built = MakeOracle(name);
    ASSERT_TRUE(built->Build(g).ok()) << name;
    const std::string bytes = testing_util::SaveIndexBytes(*built);

    auto loaded = MakeOracle(name);
    const Status status =
        loaded->LoadMapped(/*num_vertices=*/101,
                           MappedRegion{testing_util::OwnedBlob(bytes), 0});
    EXPECT_TRUE(status.IsCorruption()) << name << ": " << status.ToString();
    EXPECT_NE(status.message().find(name + " snapshot covers 100 vertices, "
                                           "graph has 101"),
              std::string::npos)
        << status.ToString();
    EXPECT_FALSE(loaded->build_stats().ok) << name;
  }
}

TEST(IntegrationTest, SnapshotNotSupportedOracleSaysSo) {
  Digraph g = RandomDag(50, 120, 93);
  auto oracle = MakeOracle("INT");
  ASSERT_TRUE(oracle->Build(g).ok());
  EXPECT_FALSE(oracle->SupportsSnapshot());
  std::stringstream ss;
  EXPECT_TRUE(oracle->SaveIndex(ss).IsNotSupported());
}

TEST(IntegrationTest, FacadeLoadRestoresCyclicGraphIndex) {
  // The server's restart path: ReachabilityIndex::LoadMapped recomputes
  // only the condensation and serves the oracle from the snapshot bytes.
  Digraph g = RandomDigraphWithCycles(600, 1500, 250, 557);
  BuildStats build_stats;
  auto built = ReachabilityIndex::Build(g, MakeOracle("DL"), BuildOptions(),
                                        &build_stats);
  ASSERT_TRUE(built.ok());
  const std::string bytes = testing_util::SaveIndexBytes(built->oracle());

  BuildStats load_stats;
  auto loaded = ReachabilityIndex::LoadMapped(
      g, MakeOracle("DL"), MappedRegion{testing_util::OwnedBlob(bytes), 0},
      &load_stats);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(load_stats.ok);
  EXPECT_EQ(load_stats.index_integers, build_stats.index_integers);
  Rng rng(558);
  for (int i = 0; i < 3000; ++i) {
    const Vertex u = static_cast<Vertex>(rng.Uniform(g.num_vertices()));
    const Vertex v = static_cast<Vertex>(rng.Uniform(g.num_vertices()));
    ASSERT_EQ(loaded->Reachable(u, v), built->Reachable(u, v))
        << "(" << u << "," << v << ")";
  }
}

TEST(IntegrationTest, PaperClaimDlSmallerThan2Hop) {
  // Section 6's headline size result: DL's labeling is no larger than the
  // set-cover 2HOP labeling on the benchmark families. Check on scaled-down
  // stand-ins of three structurally different datasets.
  for (const char* name : {"reactome", "kegg", "xmark"}) {
    auto spec = FindDataset(name);
    ASSERT_TRUE(spec.ok());
    Digraph g = MakeDataset(*spec);
    auto dl = MakeOracle("DL");
    auto twohop = MakeOracle("2HOP");
    ASSERT_TRUE(dl->Build(g).ok()) << name;
    ASSERT_TRUE(twohop->Build(g).ok()) << name;
    EXPECT_LE(dl->IndexSizeIntegers(), twohop->IndexSizeIntegers() * 3 / 2)
        << name;
  }
}

TEST(IntegrationTest, BudgetedOracleReportsDnfCleanly) {
  auto spec = FindDataset("p2p");
  ASSERT_TRUE(spec.ok());
  Digraph g = MakeDataset(*spec);
  auto oracle = MakeOracle("2HOP");
  BuildBudget budget;
  budget.max_index_integers = 10000;  // Far below the TC of a 48k graph.
  oracle->set_budget(budget);
  Status status = oracle->Build(g);
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
}

}  // namespace
}  // namespace reach
