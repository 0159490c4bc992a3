// Differential fuzzing: many random graphs per family and seed, the two
// paper algorithms (DL, HL) and one structurally unrelated baseline (INT)
// answer the same random pairs; any disagreement with BFS truth fails with
// a reproducible (family, seed, pair) triple. This complements the
// exhaustive small-graph sweep with breadth across the random-seed space.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "baselines/factory.h"
#include "baselines/twohop.h"
#include "core/distribution_labeling.h"
#include "core/hierarchical_labeling.h"
#include "core/prefilter.h"
#include "graph/generators.h"
#include "graph/topology.h"
#include "tests/test_util.h"
#include "util/mapped_blob.h"
#include "util/rng.h"
#include "util/simd.h"

namespace reach {
namespace {

struct FuzzCase {
  GraphFamily family;
  size_t vertices;
  size_t edges;
};

class DifferentialFuzzTest : public ::testing::TestWithParam<uint64_t> {};

/// The label store behind one of the labeling oracles.
const LabelStore& LabelsOf(const ReachabilityOracle& oracle) {
  if (const auto* dl =
          dynamic_cast<const DistributionLabelingOracle*>(&oracle)) {
    return dl->labeling();
  }
  if (const auto* hl =
          dynamic_cast<const HierarchicalLabelingOracle*>(&oracle)) {
    return hl->labeling();
  }
  return dynamic_cast<const TwoHopOracle&>(oracle).labeling();
}

TEST_P(DifferentialFuzzTest, OraclesAgreeWithBfs) {
  const uint64_t seed = GetParam();
  const FuzzCase cases[] = {
      {GraphFamily::kSparseRandom, 300, 800},
      {GraphFamily::kTreeLike, 350, 380},
      {GraphFamily::kCitation, 280, 700},
      {GraphFamily::kLayered, 320, 640},
      {GraphFamily::kStarForest, 400, 400},
      {GraphFamily::kDenseLayers, 120, 900},
  };
  for (const FuzzCase& c : cases) {
    Digraph g = GenerateFamily(c.family, c.vertices, c.edges, seed * 7919);
    ASSERT_TRUE(Dag::Check(g).ok()) << GraphFamilyName(c.family);

    std::unique_ptr<ReachabilityOracle> oracles[] = {
        MakeOracle("DL"), MakeOracle("HL"), MakeOracle("INT")};
    for (auto& oracle : oracles) {
      ASSERT_TRUE(oracle->Build(g).ok())
          << oracle->name() << " " << GraphFamilyName(c.family) << " seed "
          << seed;
    }
    Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
      const Vertex u = static_cast<Vertex>(rng.Uniform(g.num_vertices()));
      const Vertex v = static_cast<Vertex>(rng.Uniform(g.num_vertices()));
      const bool truth = BfsReachable(g, u, v);
      for (auto& oracle : oracles) {
        ASSERT_EQ(oracle->Reachable(u, v), truth)
            << oracle->name() << " family " << GraphFamilyName(c.family)
            << " seed " << seed << " pair (" << u << "," << v << ")";
      }
    }
  }
}

// The sealed CSR layout must be a pure storage change: for every labeling
// oracle, the sealed store, the scalar merge over a builder refilled with
// its rows (the build phase's labels) and that builder sealed again answer
// the FULL query matrix identically; the resealed blob is byte-identical
// and both stores pass LabelStore::Validate(); and the oracles agree with
// BFS truth on sampled pairs — at 1 and 4 construction threads (the
// determinism contract says the thread count never changes the labeling).
// Comparing against MergeIntersects also checks the adaptive dispatcher
// and the compiled SIMD kernels on real label shapes: short skewed spans,
// range-rejected pairs, shared-hop hits. (util/simd_test.cc fuzzes the
// kernels on synthetic ranges.)
TEST_P(DifferentialFuzzTest, SealedStoreMatchesPreSealAnswers) {
  const uint64_t seed = GetParam();
  const FuzzCase cases[] = {
      {GraphFamily::kSparseRandom, 90, 230},
      {GraphFamily::kCitation, 80, 210},
      {GraphFamily::kLayered, 90, 180},
      {GraphFamily::kDenseLayers, 70, 420},
  };
  for (const FuzzCase& c : cases) {
    Digraph g = GenerateFamily(c.family, c.vertices, c.edges, seed * 131);
    ASSERT_TRUE(Dag::Check(g).ok()) << GraphFamilyName(c.family);
    const size_t n = g.num_vertices();

    for (const int threads : {1, 4}) {
      BuildOptions options;
      options.threads = threads;
      DistributionLabelingOracle dl;
      HierarchicalLabelingOracle hl;
      HierarchicalLabelingOracle tf(
          HierarchicalLabelingOracle::TfLabelOptions());
      TwoHopOracle twohop;
      struct Case {
        const char* name;
        ReachabilityOracle* oracle;
        const LabelStore* labels;
      };
      const Case oracles[] = {
          {"DL", &dl, &dl.labeling()},
          {"HL", &hl, &hl.labeling()},
          {"TF", &tf, &tf.labeling()},
          {"2HOP", &twohop, &twohop.labeling()},
      };
      for (const Case& oc : oracles) {
        ASSERT_TRUE(oc.oracle->Build(g, options).ok())
            << oc.name << " seed " << seed << " threads " << threads;
        ASSERT_TRUE(oc.labels->Validate().ok()) << oc.name;
        const LabelBuilder preseal = testing_util::RowsOf(*oc.labels);
        const LabelStore resealed = testing_util::CopyOf(preseal).Seal();
        ASSERT_TRUE(resealed.Validate().ok()) << oc.name;
        ASSERT_EQ(testing_util::SaveIndexBytes(*oc.oracle),
                  testing_util::LabelBytes(resealed))
            << oc.name;
        for (Vertex u = 0; u < n; ++u) {
          for (Vertex v = 0; v < n; ++v) {
            const bool sealed = oc.labels->Query(u, v);
            ASSERT_EQ(sealed, MergeIntersects(preseal.Out(u), preseal.In(v)))
                << oc.name << " family " << GraphFamilyName(c.family)
                << " seed " << seed << " threads " << threads << " pair ("
                << u << "," << v << ")";
            ASSERT_EQ(sealed, resealed.Query(u, v))
                << oc.name << "/resealed family " << GraphFamilyName(c.family)
                << " seed " << seed << " threads " << threads << " pair ("
                << u << "," << v << ")";
          }
        }
      }
      // Truth spot-check on sampled pairs (the matrix above proves
      // seal-equivalence; this proves neither phase drifted from reality).
      Rng rng(seed * 17 + threads);
      for (int i = 0; i < 150; ++i) {
        const Vertex u = static_cast<Vertex>(rng.Uniform(n));
        const Vertex v = static_cast<Vertex>(rng.Uniform(n));
        const bool truth = BfsReachable(g, u, v);
        for (const Case& oc : oracles) {
          ASSERT_EQ(oc.oracle->Reachable(u, v), truth)
              << oc.name << " family " << GraphFamilyName(c.family)
              << " seed " << seed << " threads " << threads << " pair ("
              << u << "," << v << ")";
        }
      }
    }
  }
}

// The pre-filter tier must be answer-invisible: PrefilterOracle(X) and a
// bare X built from the same options agree on the FULL query matrix for
// every labeling oracle, at 1 and 4 construction threads.
TEST_P(DifferentialFuzzTest, PrefilterWrappedMatchesBareOracle) {
  const uint64_t seed = GetParam();
  enum OracleKind { kDl, kHl, kTf, kTwoHop, kNumOracleKinds };
  const auto make = [](int kind) -> std::unique_ptr<ReachabilityOracle> {
    switch (kind) {
      case kDl:
        return std::make_unique<DistributionLabelingOracle>();
      case kHl:
        return std::make_unique<HierarchicalLabelingOracle>();
      case kTf:
        return std::make_unique<HierarchicalLabelingOracle>(
            HierarchicalLabelingOracle::TfLabelOptions());
      default:
        return std::make_unique<TwoHopOracle>();
    }
  };
  const char* kind_names[] = {"DL", "HL", "TF", "2HOP"};
  const FuzzCase cases[] = {
      {GraphFamily::kSparseRandom, 85, 220},
      {GraphFamily::kStarForest, 90, 90},
      {GraphFamily::kDenseLayers, 70, 420},
  };
  for (const FuzzCase& c : cases) {
    Digraph g = GenerateFamily(c.family, c.vertices, c.edges, seed * 523);
    ASSERT_TRUE(Dag::Check(g).ok()) << GraphFamilyName(c.family);
    const size_t n = g.num_vertices();
    for (const int threads : {1, 4}) {
      BuildOptions options;
      options.threads = threads;
      for (int kind = 0; kind < kNumOracleKinds; ++kind) {
        std::unique_ptr<ReachabilityOracle> bare = make(kind);
        PrefilterOracle wrapped(make(kind));
        ASSERT_TRUE(bare->Build(g, options).ok())
            << kind_names[kind] << " seed " << seed << " threads " << threads;
        ASSERT_TRUE(wrapped.Build(g, options).ok())
            << kind_names[kind] << " seed " << seed << " threads " << threads;
        for (Vertex u = 0; u < n; ++u) {
          for (Vertex v = 0; v < n; ++v) {
            ASSERT_EQ(wrapped.Reachable(u, v), bare->Reachable(u, v))
                << kind_names[kind] << " family "
                << GraphFamilyName(c.family) << " seed " << seed
                << " threads " << threads << " pair (" << u << "," << v
                << ")";
          }
        }
      }
    }
  }
}

// Loading must be a pure storage change: for every snapshot-capable
// oracle, the index served out of the snapshot bytes — read onto the heap
// (MappedBlob::OpenOwned) or mmapped — answers the FULL query matrix
// identically to the freshly built oracle, and both loaded label stores
// pass Validate(). label_store_test pins the byte-level validation.
TEST_P(DifferentialFuzzTest, MappedSnapshotMatchesOwnedAndBuiltAnswers) {
  const uint64_t seed = GetParam();
  const FuzzCase cases[] = {
      {GraphFamily::kSparseRandom, 80, 200},
      {GraphFamily::kStarForest, 90, 90},
      {GraphFamily::kDenseLayers, 60, 360},
  };
  const char* methods[] = {"DL", "HL", "TF", "2HOP"};
  for (const FuzzCase& c : cases) {
    Digraph g = GenerateFamily(c.family, c.vertices, c.edges, seed * 911);
    ASSERT_TRUE(Dag::Check(g).ok()) << GraphFamilyName(c.family);
    const size_t n = g.num_vertices();
    for (const char* method : methods) {
      std::unique_ptr<ReachabilityOracle> built = MakeOracle(method);
      ASSERT_NE(built, nullptr) << method;
      ASSERT_TRUE(built->Build(g).ok()) << method << " seed " << seed;
      ASSERT_TRUE(built->SupportsSnapshot()) << method;
      const std::string bytes = testing_util::SaveIndexBytes(*built);
      const std::string tag = "diff_fuzz." + std::string(method) + "." +
                              std::to_string(seed) + "." +
                              GraphFamilyName(c.family);

      std::unique_ptr<ReachabilityOracle> owned = MakeOracle(method);
      const MappedRegion owned_region{
          testing_util::MapBytes(bytes, tag, /*owned=*/true), 0};
      ASSERT_TRUE(owned->LoadMapped(g, owned_region).ok())
          << method << " seed " << seed;
      std::unique_ptr<ReachabilityOracle> mapped = MakeOracle(method);
      const MappedRegion mapped_region{testing_util::MapBytes(bytes, tag), 0};
      ASSERT_TRUE(mapped->LoadMapped(g, mapped_region).ok())
          << method << " seed " << seed;
      EXPECT_FALSE(LabelsOf(*owned).mapped()) << method;
      EXPECT_EQ(LabelsOf(*mapped).mapped(), MappedBlob::PlatformSupportsMmap())
          << method;
      ASSERT_TRUE(LabelsOf(*owned).Validate().ok()) << method;
      ASSERT_TRUE(LabelsOf(*mapped).Validate().ok()) << method;

      for (Vertex u = 0; u < n; ++u) {
        for (Vertex v = 0; v < n; ++v) {
          const bool expected = built->Reachable(u, v);
          ASSERT_EQ(owned->Reachable(u, v), expected)
              << method << "/owned family " << GraphFamilyName(c.family)
              << " seed " << seed << " pair (" << u << "," << v << ")";
          ASSERT_EQ(mapped->Reachable(u, v), expected)
              << method << "/mapped family " << GraphFamilyName(c.family)
              << " seed " << seed << " pair (" << u << "," << v << ")";
        }
      }
    }
  }
}

// Detection half of snapshot integrity: flipping the high byte of one
// label key in a snapshot leaves every structural check intact, so
// LoadMapped accepts the file — but the key now exceeds the vertex count,
// and LabelStore::Validate() must reject it, naming the side and the row
// the key sits in.
TEST_P(DifferentialFuzzTest, FlippedKeyByteIsCaughtByValidate) {
  const uint64_t seed = GetParam();
  Digraph g = GenerateFamily(GraphFamily::kSparseRandom, 120, 300, seed * 61);
  Rng rng(seed * 67);
  for (const char* method : {"DL", "HL", "TF", "2HOP"}) {
    std::unique_ptr<ReachabilityOracle> built = MakeOracle(method);
    ASSERT_TRUE(built->Build(g).ok()) << method << " seed " << seed;
    std::string bytes = testing_util::SaveIndexBytes(*built);

    // RLSTORE3 layout (core/label_store.h): a 32-byte header [magic, n,
    // total_out, total_in], then per side (n + 1) u64 offsets and the u32
    // keys, zero-padded to 8.
    uint64_t header[4];
    std::memcpy(header, bytes.data(), sizeof(header));
    const uint64_t vertices = header[1];
    const bool out_side = rng.Bernoulli(0.5);
    const uint64_t total = out_side ? header[2] : header[3];
    ASSERT_GT(total, 0u) << method;
    const uint64_t offsets_bytes = (vertices + 1) * sizeof(uint64_t);
    const uint64_t off_at =
        out_side ? 32 : 32 + offsets_bytes + header[2] * 4 + header[2] % 2 * 4;
    const uint64_t key_at = off_at + offsets_bytes;
    const uint64_t entry = rng.Uniform(total);
    std::vector<uint64_t> offsets(vertices + 1);
    std::memcpy(offsets.data(), bytes.data() + off_at, offsets_bytes);
    const uint64_t row = static_cast<uint64_t>(
        std::upper_bound(offsets.begin(), offsets.end(), entry) -
        offsets.begin() - 1);
    // Keys are < n < 2^24 here, so the flipped high byte puts it past n.
    bytes[key_at + entry * 4 + 3] ^= static_cast<char>(0x80);

    const std::string tag = "diff_fuzz." + std::string(method) + ".flip." +
                            std::to_string(seed);
    std::unique_ptr<ReachabilityOracle> loaded = MakeOracle(method);
    const MappedRegion region{testing_util::MapBytes(bytes, tag), 0};
    ASSERT_TRUE(loaded->LoadMapped(g, region).ok())
        << method << " seed " << seed;
    const Status status = LabelsOf(*loaded).Validate();
    EXPECT_TRUE(status.IsCorruption()) << method << " seed " << seed;
    const std::string where = std::string(out_side ? "Lout" : "Lin") +
                              " row " + std::to_string(row) + " ";
    EXPECT_NE(status.message().find(where), std::string::npos)
        << method << " seed " << seed << ": " << status.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, DifferentialFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace reach
