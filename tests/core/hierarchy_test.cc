#include "core/hierarchy.h"

#include "gtest/gtest.h"
#include "graph/generators.h"
#include "graph/topology.h"
#include "tests/test_util.h"

namespace reach {
namespace {

TEST(HierarchyTest, SmallGraphIsItsOwnCore) {
  Digraph g = testing_util::Diamond();
  HierarchyOptions options;  // Default core threshold far above 4 vertices.
  auto h = Hierarchy::Build(*Dag::Check(g), options);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_levels(), 1u);
  EXPECT_EQ(h->core_level(), 0u);
  for (Vertex v = 0; v < 4; ++v) EXPECT_EQ(h->LevelOf(v), 0u);
}

TEST(HierarchyTest, LevelsAreNested) {
  Digraph g = TreeLikeDag(6000, 500, 31);
  HierarchyOptions options;
  options.core_size_threshold = 100;
  auto h = Hierarchy::Build(*Dag::Check(g), options);
  ASSERT_TRUE(h.ok());
  EXPECT_GT(h->num_levels(), 1u);
  // G0 is the input graph itself, not a copy of it.
  EXPECT_EQ(&h->LevelGraph(0), &g);
  for (size_t i = 1; i < h->num_levels(); ++i) {
    const auto& upper = h->LevelVertices(i);
    const auto& lower = h->LevelVertices(i - 1);
    EXPECT_LT(upper.size(), lower.size());
    // Vi is a subset of Vi-1.
    EXPECT_TRUE(std::includes(lower.begin(), lower.end(), upper.begin(),
                              upper.end()));
  }
}

TEST(HierarchyTest, LevelOfMatchesMembership) {
  Digraph g = RandomDag(3000, 9000, 32);
  HierarchyOptions options;
  options.core_size_threshold = 200;
  auto h = Hierarchy::Build(*Dag::Check(g), options);
  ASSERT_TRUE(h.ok());
  for (size_t i = 0; i < h->num_levels(); ++i) {
    for (Vertex v : h->LevelVertices(i)) {
      EXPECT_GE(h->LevelOf(v), i);
      EXPECT_TRUE(h->InLevel(v, i));
    }
  }
  // Every vertex's level is consistent: v appears in levels 0..LevelOf(v).
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const uint32_t level = h->LevelOf(v);
    ASSERT_LT(level, h->num_levels());
    const auto& members = h->LevelVertices(level);
    EXPECT_TRUE(std::binary_search(members.begin(), members.end(), v));
    if (level + 1 < h->num_levels()) {
      const auto& above = h->LevelVertices(level + 1);
      EXPECT_FALSE(std::binary_search(above.begin(), above.end(), v));
    }
  }
}

// Paper Lemma 1: for u, v in Vi, u reaches v in G iff u reaches v in Gi.
TEST(HierarchyTest, Lemma1ReachabilityPreservedPerLevel) {
  Digraph g = RandomDag(600, 1500, 33);
  HierarchyOptions options;
  options.core_size_threshold = 30;
  auto h = Hierarchy::Build(*Dag::Check(g), options);
  ASSERT_TRUE(h.ok());
  for (size_t i = 1; i < h->num_levels(); ++i) {
    const auto& members = h->LevelVertices(i);
    // Sample pairs to keep the quadratic check affordable.
    for (size_t a = 0; a < members.size(); a += 3) {
      for (size_t b = 0; b < members.size(); b += 7) {
        const Vertex u = members[a];
        const Vertex v = members[b];
        EXPECT_EQ(BfsReachable(g, u, v), BfsReachable(h->LevelGraph(i), u, v))
            << "level " << i << " pair (" << u << "," << v << ")";
      }
    }
  }
}

TEST(HierarchyTest, MaxLevelsRespected) {
  Digraph g = RandomDag(4000, 12000, 34);
  HierarchyOptions options;
  options.core_size_threshold = 1;
  options.max_levels = 2;
  auto h = Hierarchy::Build(*Dag::Check(g), options);
  ASSERT_TRUE(h.ok());
  EXPECT_LE(h->num_levels(), 3u);  // G0 plus at most two backbones.
}

TEST(HierarchyTest, PaperFigure1Decomposes) {
  // The running example of Section 4: the hierarchy should shrink the
  // 40-vertex example substantially at each level.
  Digraph g = testing_util::PaperFigure1Graph();
  HierarchyOptions options;
  options.core_size_threshold = 4;
  auto h = Hierarchy::Build(*Dag::Check(g), options);
  ASSERT_TRUE(h.ok());
  EXPECT_GE(h->num_levels(), 2u);
  EXPECT_LT(h->LevelVertices(1).size(), g.num_vertices() / 2);
}

TEST(HierarchyTest, Epsilon1Hierarchy) {
  Digraph g = TreeLikeDag(3000, 300, 35);
  HierarchyOptions options;
  options.backbone.epsilon = 1;
  options.core_size_threshold = 100;
  auto h = Hierarchy::Build(*Dag::Check(g), options);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->epsilon(), 1);
  EXPECT_GT(h->num_levels(), 1u);
}

}  // namespace
}  // namespace reach
