// DistributeLabels against the canonical labeling of its order, derived
// from the transitive closure: hop h is in Lout(u) iff u reaches h and no
// earlier hop w has u -> w -> h, and h is in Lin(v) iff h reaches v and no
// earlier hop w has h -> w -> v. That is what Algorithm 2's sequential hop
// loop produces, and the batch-parallel loop must reproduce it exactly.
//
// build_determinism_test cannot catch a bug in the batch cleanup: every
// thread count runs the same batch schedule, so a wrong cleanup is wrong
// the same way everywhere. This suite compares against an independent
// reference instead. The graphs have well over 511 vertices, so batches
// reach their full width, and both key spaces the callers use are covered:
// order positions (the DL oracle) and vertex ids (HL's core labeler, where
// key order is not batch order).

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "core/distribution_labeling.h"
#include "core/label_store.h"
#include "graph/generators.h"
#include "graph/transitive_closure.h"
#include "util/bitset.h"

namespace reach {
namespace {

struct Labels {
  std::vector<std::vector<uint32_t>> out;
  std::vector<std::vector<uint32_t>> in;
};

// The canonical labeling of `order` with hop keys `key_of`, straight from
// its definition over the descendant and ancestor closures.
Labels CanonicalLabels(const Digraph& g, const std::vector<Vertex>& order,
                       const std::vector<uint32_t>& key_of) {
  const size_t n = g.num_vertices();
  const StatusOr<Dag> dag = Dag::Check(g);
  EXPECT_TRUE(dag.ok());
  auto desc = TransitiveClosure::Compute(*dag);
  auto anc = TransitiveClosure::Compute(
      *dag, /*max_bytes=*/0, /*threads=*/1,
      TransitiveClosure::Direction::kAncestors);
  EXPECT_TRUE(desc.ok() && anc.ok());
  Labels labels;
  labels.out.resize(n);
  labels.in.resize(n);
  for (size_t i = 0; i < order.size(); ++i) {
    const Vertex h = order[i];
    // Pairs an earlier hop w already covers: every u -> w with w -> h, and
    // every v with h -> w -> v.
    Bitset covered_out(n);
    Bitset covered_in(n);
    for (size_t k = 0; k < i; ++k) {
      const Vertex w = order[k];
      if (desc->Reachable(w, h)) covered_out.UnionWith(anc->Row(w));
      if (desc->Reachable(h, w)) covered_in.UnionWith(desc->Row(w));
    }
    for (const Vertex u : anc->ReachableSet(h)) {
      if (!covered_out.Test(u)) labels.out[u].push_back(key_of[h]);
    }
    for (const Vertex v : desc->ReachableSet(h)) {
      if (!covered_in.Test(v)) labels.in[v].push_back(key_of[h]);
    }
  }
  for (auto& keys : labels.out) std::sort(keys.begin(), keys.end());
  for (auto& keys : labels.in) std::sort(keys.begin(), keys.end());
  return labels;
}

struct Case {
  std::string name;
  Digraph graph;
};

std::vector<Case> Graphs() {
  std::vector<Case> cases;
  cases.push_back({"random", RandomDag(1500, 6000, 61)});
  cases.push_back({"citation", CitationDag(1500, 3.0, 62)});
  cases.push_back({"tree_like", TreeLikeDag(2000, 400, 63)});
  return cases;
}

// Runs DistributeLabels over builders of 1, 2, 3 and 8 row partitions (one
// worker each) and requires every label to equal the canonical one. 3
// partitions leave the append's row blocks uneven. `vertex_id_keys` picks
// the key space.
void ExpectCanonical(bool vertex_id_keys) {
  for (const Case& c : Graphs()) {
    const Digraph& g = c.graph;
    const size_t n = g.num_vertices();
    std::vector<Vertex> members(n);
    for (Vertex v = 0; v < n; ++v) members[v] = v;
    const std::vector<Vertex> order = ComputeDistributionOrder(
        *Dag::Check(g), members, DistributionOptions());
    std::vector<uint32_t> key_of(n);
    for (uint32_t i = 0; i < n; ++i) {
      key_of[order[i]] = vertex_id_keys ? order[i] : i;
    }
    const Labels expected = CanonicalLabels(g, order, key_of);

    for (const int threads : {1, 2, 3, 8}) {
      SCOPED_TRACE(c.name + ", " + std::to_string(threads) + " threads");
      LabelBuilder labels(n, static_cast<size_t>(threads));
      DistributeLabels(g, order, key_of, &labels);
      size_t mismatches = 0;
      for (Vertex v = 0; v < n && mismatches < 5; ++v) {
        const auto out = labels.Out(v);
        const auto in = labels.In(v);
        if (!std::equal(out.begin(), out.end(), expected.out[v].begin(),
                        expected.out[v].end())) {
          ADD_FAILURE() << "Lout(" << v << ") has " << out.size()
                        << " keys, canonical " << expected.out[v].size();
          ++mismatches;
        }
        if (!std::equal(in.begin(), in.end(), expected.in[v].begin(),
                        expected.in[v].end())) {
          ADD_FAILURE() << "Lin(" << v << ") has " << in.size()
                        << " keys, canonical " << expected.in[v].size();
          ++mismatches;
        }
      }
    }
  }
}

TEST(CanonicalLabelingTest, OrderPositionKeys) { ExpectCanonical(false); }

TEST(CanonicalLabelingTest, VertexIdKeys) { ExpectCanonical(true); }

}  // namespace
}  // namespace reach
