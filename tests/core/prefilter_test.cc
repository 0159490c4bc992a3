// Soundness battery for the O(1) pre-filter tier (core/prefilter.h). The
// contract under test: every stage is three-valued, may answer kMaybe
// freely, but a definite kYes/kNo must match BFS ground truth — on random
// DAGs, on cyclic graphs (through the SCC condensation), and on the
// adversarial shapes (single chain, broadcast star, disconnected
// components, self-queries). The snapshot section is exercised with a
// byte-level round trip plus corrupt-blob regressions.

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "baselines/online_search.h"
#include "core/distribution_labeling.h"
#include "core/prefilter.h"
#include "core/reachability.h"
#include "graph/generators.h"
#include "graph/topology.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace reach {
namespace {

std::unique_ptr<PrefilterOracle> BuildPrefilterDL(const Digraph& dag) {
  auto oracle = std::make_unique<PrefilterOracle>(
      std::make_unique<DistributionLabelingOracle>());
  EXPECT_TRUE(oracle->Build(dag).ok());
  return oracle;
}

// A definite stage verdict that contradicts BFS truth is the one bug this
// tier must never have; kMaybe is always acceptable.
void ExpectStageSound(const PrefilterOracle& oracle, const Digraph& g,
                      Vertex u, Vertex v, const char* context) {
  const bool truth = BfsReachable(g, u, v);
  const struct {
    const char* name;
    PrefilterVerdict verdict;
  } stages[] = {
      {"interval", oracle.TopoIntervalStage(u, v)},
      {"support", oracle.SupportStage(u, v)},
      {"level", oracle.LevelStage(u, v)},
  };
  for (const auto& stage : stages) {
    if (stage.verdict == PrefilterVerdict::kYes) {
      ASSERT_TRUE(truth) << context << " " << stage.name
                         << " stage claimed YES on unreachable pair (" << u
                         << "," << v << ")";
    } else if (stage.verdict == PrefilterVerdict::kNo) {
      ASSERT_FALSE(truth) << context << " " << stage.name
                          << " stage claimed NO on reachable pair (" << u
                          << "," << v << ")";
    }
  }
  ASSERT_EQ(oracle.Reachable(u, v), truth)
      << context << " combined answer wrong on (" << u << "," << v << ")";
}

class PrefilterStageFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrefilterStageFuzzTest, EveryStageSoundOnRandomDags) {
  const uint64_t seed = GetParam();
  const struct {
    GraphFamily family;
    size_t vertices;
    size_t edges;
  } cases[] = {
      {GraphFamily::kSparseRandom, 110, 300},
      {GraphFamily::kDenseLayers, 70, 420},
      {GraphFamily::kTreeLike, 120, 130},
      {GraphFamily::kStarForest, 120, 120},
  };
  for (const auto& c : cases) {
    const Digraph g = GenerateFamily(c.family, c.vertices, c.edges,
                                     seed * 977);
    ASSERT_TRUE(Dag::Check(g).ok());
    const auto oracle = BuildPrefilterDL(g);
    const size_t n = g.num_vertices();
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = 0; v < n; ++v) {
        ExpectStageSound(*oracle, g, u, v, GraphFamilyName(c.family).c_str());
      }
    }
  }
}

TEST_P(PrefilterStageFuzzTest, SoundOnCyclicGraphsThroughCondensation) {
  const uint64_t seed = GetParam();
  // A DAG plus random back edges: cycles appear, the condensation handles
  // them, and the prefilter must stay exact on the condensed DAG.
  const Digraph g = RandomDigraphWithCycles(90, 240, 25, seed * 37);
  ASSERT_FALSE(Dag::Check(g).ok());

  auto index = ReachabilityIndex::Build(
      g, std::make_unique<PrefilterOracle>(
             std::make_unique<DistributionLabelingOracle>()));
  ASSERT_TRUE(index.ok());
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(index->Reachable(u, v), BfsReachable(g, u, v))
          << "cyclic seed " << seed << " pair (" << u << "," << v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, PrefilterStageFuzzTest,
                         ::testing::Range<uint64_t>(1, 7));

// Single chain: the DFS forest is the chain itself, so the interval stage
// alone decides every pair and the wrapped oracle is never consulted.
TEST(PrefilterAdversarialTest, SingleChainNeverFallsBack) {
  constexpr size_t kN = 64;
  GraphBuilder b(kN);
  for (Vertex v = 0; v + 1 < kN; ++v) b.AddEdge(v, v + 1);
  const Digraph g = b.Build();
  auto oracle = BuildPrefilterDL(g);
  for (Vertex u = 0; u < kN; ++u) {
    for (Vertex v = 0; v < kN; ++v) {
      EXPECT_EQ(oracle->TopoIntervalStage(u, v),
                u <= v ? PrefilterVerdict::kYes : PrefilterVerdict::kNo)
          << "(" << u << "," << v << ")";
      ASSERT_EQ(oracle->Reachable(u, v), u <= v);
    }
  }
  const PrefilterStageCounters counters = oracle->counters();
  EXPECT_EQ(counters.fallback, 0u);
  EXPECT_EQ(counters.Total(), kN * kN);
}

// Broadcast star: 0 -> every leaf. Hub pairs are interval YES; leaf-to-leaf
// pairs must resolve definitely NO in some O(1) stage.
TEST(PrefilterAdversarialTest, BroadcastStarResolvesWithoutFallback) {
  constexpr size_t kN = 80;
  GraphBuilder b(kN);
  for (Vertex v = 1; v < kN; ++v) b.AddEdge(0, v);
  const Digraph g = b.Build();
  auto oracle = BuildPrefilterDL(g);
  for (Vertex u = 0; u < kN; ++u) {
    for (Vertex v = 0; v < kN; ++v) {
      ExpectStageSound(*oracle, g, u, v, "star");
    }
  }
  oracle->ResetCounters();
  for (Vertex u = 0; u < kN; ++u) {
    for (Vertex v = 0; v < kN; ++v) {
      ASSERT_EQ(oracle->Reachable(u, v), u == v || u == 0);
    }
  }
  EXPECT_EQ(oracle->counters().fallback, 0u);
}

// Two disconnected chains small enough that every vertex is a support:
// the support stage is then complete (exact), so cross-component queries
// are all definite NOs and nothing reaches the wrapped oracle.
TEST(PrefilterAdversarialTest, DisconnectedComponentsFullSupportCoverage) {
  constexpr size_t kHalf = 8;  // 16 vertices, all within kMaxSupports.
  GraphBuilder b(2 * kHalf);
  for (Vertex v = 0; v + 1 < kHalf; ++v) {
    b.AddEdge(v, v + 1);
    b.AddEdge(kHalf + v, kHalf + v + 1);
  }
  const Digraph g = b.Build();
  auto oracle = BuildPrefilterDL(g);
  ASSERT_EQ(oracle->supports().size(), 2 * kHalf);
  for (Vertex u = 0; u < 2 * kHalf; ++u) {
    for (Vertex v = 0; v < 2 * kHalf; ++v) {
      const bool truth = BfsReachable(g, u, v);
      ExpectStageSound(*oracle, g, u, v, "two-chains");
      // With every vertex sampled, the support masks encode the full
      // transitive closure: no pair is ever a MAYBE.
      EXPECT_EQ(oracle->SupportStage(u, v),
                truth ? PrefilterVerdict::kYes : PrefilterVerdict::kNo)
          << "(" << u << "," << v << ")";
    }
  }
  oracle->ResetCounters();
  for (Vertex u = 0; u < 2 * kHalf; ++u) {
    for (Vertex v = 0; v < 2 * kHalf; ++v) {
      ASSERT_EQ(oracle->Reachable(u, v), BfsReachable(g, u, v));
    }
  }
  EXPECT_EQ(oracle->counters().fallback, 0u);
}

TEST(PrefilterAdversarialTest, SelfQueriesAreAlwaysDefiniteYes) {
  const Digraph g = RandomDag(120, 300, 11);
  auto oracle = BuildPrefilterDL(g);
  oracle->ResetCounters();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(oracle->TopoIntervalStage(v, v), PrefilterVerdict::kYes);
    EXPECT_EQ(oracle->SupportStage(v, v), PrefilterVerdict::kYes);
    EXPECT_EQ(oracle->LevelStage(v, v), PrefilterVerdict::kYes);
    ASSERT_TRUE(oracle->Reachable(v, v));
  }
  const PrefilterStageCounters counters = oracle->counters();
  EXPECT_EQ(counters.interval_yes, g.num_vertices());
  EXPECT_EQ(counters.fallback, 0u);
}

TEST(PrefilterCountersTest, EveryQueryLandsInExactlyOneCounter) {
  const Digraph g = RandomDag(200, 600, 3);
  auto oracle = BuildPrefilterDL(g);
  oracle->ResetCounters();
  Rng rng(17);
  constexpr size_t kQueries = 5000;
  for (size_t i = 0; i < kQueries; ++i) {
    oracle->Reachable(static_cast<Vertex>(rng.Uniform(g.num_vertices())),
                      static_cast<Vertex>(rng.Uniform(g.num_vertices())));
  }
  EXPECT_EQ(oracle->counters().Total(), kQueries);
  EXPECT_EQ(oracle->name(), "DL+pf");
}

// The records are the only per-vertex state: one 64-byte QueryRecord per
// vertex plus the support ids, on top of the wrapped oracle. The integer
// count is the snapshot's: seven u32 columns, two u64 masks, the supports.
TEST(PrefilterSizeTest, IndexSizeCountsOneRecordPerVertex) {
  const Digraph g = RandomDag(300, 900, 12);
  auto oracle = BuildPrefilterDL(g);
  const uint64_t n = g.num_vertices();
  const uint64_t k = oracle->supports().size();
  ASSERT_EQ(k, PrefilterOracle::kMaxSupports);
  EXPECT_EQ(oracle->IndexSizeBytes(),
            oracle->inner().IndexSizeBytes() + 64 * n + 4 * k);
  EXPECT_EQ(oracle->IndexSizeIntegers(),
            oracle->inner().IndexSizeIntegers() + 11 * n + k);
}

TEST(PrefilterSnapshotTest, RoundTripRestoresAuxArraysAndAnswers) {
  const Digraph g = RandomDag(150, 450, 5);
  auto built = BuildPrefilterDL(g);
  ASSERT_TRUE(built->SupportsSnapshot());
  const std::string original = testing_util::SaveIndexBytes(*built);

  PrefilterOracle loaded(std::make_unique<DistributionLabelingOracle>());
  ASSERT_TRUE(
      loaded.LoadMapped(g.num_vertices(),
                        MappedRegion{testing_util::OwnedBlob(original), 0})
          .ok());
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(loaded.Reachable(u, v), built->Reachable(u, v))
          << "(" << u << "," << v << ")";
    }
  }
  // Save-of-load is byte-identical: the snapshot is a fixed point, and it
  // holds every aux column, so the loaded records equal the built ones.
  EXPECT_EQ(testing_util::SaveIndexBytes(loaded), original);
}

TEST(PrefilterSnapshotTest, NonSnapshotInnerIsRefused) {
  const Digraph g = RandomDag(40, 100, 9);
  PrefilterOracle oracle(std::make_unique<OnlineSearchOracle>());
  ASSERT_TRUE(oracle.Build(g).ok());
  EXPECT_FALSE(oracle.SupportsSnapshot());
  std::stringstream blob;
  const Status save = oracle.SaveIndex(blob);
  ASSERT_FALSE(save.ok());
  EXPECT_TRUE(save.IsNotSupported());
  // The wrapper still answers correctly over a non-snapshot inner oracle.
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(oracle.Reachable(u, v), BfsReachable(g, u, v));
    }
  }
}

// Corrupt-blob regressions for the extended snapshot section. Offsets into
// the aux section are computed from the layout: magic(8) n(8) k(4)
// supports(4k) then seven uint32[n] arrays then two uint64[n] mask arrays,
// followed by the inner oracle's own blob. Each variant goes through the
// one load path, LoadMapped over a heap copy of the bytes.
class PrefilterCorruptBlobTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = RandomDag(60, 150, 31);
    auto oracle = BuildPrefilterDL(graph_);
    n_ = graph_.num_vertices();
    k_ = oracle->supports().size();
    base_ = testing_util::SaveIndexBytes(*oracle);
  }

  size_t SupportsOffset() const { return 8 + 8 + 4; }
  size_t ArraysOffset() const { return SupportsOffset() + 4 * k_; }
  size_t MasksOffset() const { return ArraysOffset() + 7 * 4 * n_; }
  size_t AuxEnd() const { return MasksOffset() + 2 * 8 * n_; }

  Status LoadBlob(const std::string& bytes) {
    PrefilterOracle oracle(std::make_unique<DistributionLabelingOracle>());
    return oracle.LoadMapped(
        graph_.num_vertices(), MappedRegion{testing_util::OwnedBlob(bytes), 0});
  }

  Digraph graph_;
  size_t n_ = 0;
  size_t k_ = 0;
  std::string base_;
};

TEST_F(PrefilterCorruptBlobTest, ValidBlobLoads) {
  ASSERT_GT(base_.size(), AuxEnd());  // Inner blob follows the aux section.
  EXPECT_TRUE(LoadBlob(base_).ok());
}

TEST_F(PrefilterCorruptBlobTest, MagicMismatchIsCorruption) {
  std::string bytes = base_;
  bytes[0] ^= 0x5a;
  const Status status = LoadBlob(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption());
}

TEST_F(PrefilterCorruptBlobTest, SupportCountBeyondVerticesIsCorruption) {
  std::string bytes = base_;
  const uint32_t bogus = static_cast<uint32_t>(n_) + 1;
  std::memcpy(&bytes[16], &bogus, sizeof(bogus));
  const Status status = LoadBlob(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption());
}

TEST_F(PrefilterCorruptBlobTest, HugeSupportCountIsCorruption) {
  std::string bytes = base_;
  const uint32_t bogus = 0xffffffffu;
  std::memcpy(&bytes[16], &bogus, sizeof(bogus));
  const Status status = LoadBlob(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption());
}

TEST_F(PrefilterCorruptBlobTest, TruncatedBitsetIsCorruption) {
  // Cut mid-way through the forward mask array.
  const std::string bytes = base_.substr(0, MasksOffset() + 8 * (n_ / 2) + 3);
  const Status status = LoadBlob(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption());
}

TEST_F(PrefilterCorruptBlobTest, MaskBitsBeyondSupportCountAreCorruption) {
  // k < 64 here (the graph has 60 vertices), so the mask's top bit can
  // never be legitimate; setting the high byte must trip the validator.
  ASSERT_LT(k_, 64u);
  std::string bytes = base_;
  bytes[MasksOffset() + 7] = static_cast<char>(0xff);  // High byte of mask 0.
  const Status status = LoadBlob(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption());
}

TEST_F(PrefilterCorruptBlobTest, RepeatedTopoPositionIsCorruption) {
  std::string bytes = base_;
  // Overwrite topo_pos[1] with topo_pos[0].
  std::memcpy(&bytes[ArraysOffset() + 4], &bytes[ArraysOffset()], 4);
  const Status status = LoadBlob(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption());
}

TEST_F(PrefilterCorruptBlobTest, TrailingBytesAreRejected) {
  const Status status = LoadBlob(base_ + std::string(1, '\0'));
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption());
}

TEST_F(PrefilterCorruptBlobTest, SupportIdOutOfRangeIsCorruption) {
  std::string bytes = base_;
  const uint32_t bogus = static_cast<uint32_t>(n_);  // One past the end.
  std::memcpy(&bytes[SupportsOffset()], &bogus, sizeof(bogus));
  const Status status = LoadBlob(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption());
}

}  // namespace
}  // namespace reach
