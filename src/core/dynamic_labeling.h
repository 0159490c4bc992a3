// Dynamic Distribution Labeling: incremental edge insertion on top of a
// built DL oracle. The paper's conclusion names dynamic graphs as the open
// follow-up problem; this implements the standard patching scheme (in the
// spirit of the dynamic pruned-landmark updates of Akiba et al. 2014,
// adapted to reachability):
//
// When edge (u, v) is inserted, the only new reachable pairs are
// TC^-1(u) x TC(v). Completeness is restored by re-distributing the hops
// already present on the far side of the new edge:
//   * every hop key k in Lout(v) is pushed to Lout of u's (new) ancestors
//     by a pruned reverse BFS from u (prune where Query(a, hop_k) already
//     holds);
//   * every hop key k in Lin(u) is pushed to Lin of v's (new) descendants
//     by a pruned forward BFS from v.
// The patched labeling stays complete; it may lose Theorem 4's
// non-redundancy (documented), which a periodic rebuild restores.
//
// Only DAG-preserving insertions are accepted: inserting (u, v) when v
// already reaches u would create a cycle, which 2-hop labels over a DAG
// cannot express; such calls fail with InvalidArgument (callers wanting
// cyclic graphs should re-condense, see ReachabilityIndex).

#ifndef REACH_CORE_DYNAMIC_LABELING_H_
#define REACH_CORE_DYNAMIC_LABELING_H_

#include <cstdint>
#include <vector>

#include "core/distribution_labeling.h"
#include "core/label_store.h"
#include "core/oracle.h"
#include "graph/digraph.h"
#include "util/status.h"

namespace reach {

/// A DL oracle that accepts incremental edge insertions.
class DynamicDistributionLabeling : public ReachabilityOracle {
 public:
  explicit DynamicDistributionLabeling(DistributionOptions options = {})
      : options_(options) {}

  /// Builds the initial labeling (identical to DistributionLabelingOracle).
 protected:
  Status BuildIndex(const Digraph& dag) override;
  Status LoadIndexMapped(const Digraph& dag, MappedRegion region) override;

 public:

  bool Reachable(Vertex u, Vertex v) const override {
    return u == v || labeling_.Query(u, v);
  }

  /// Snapshots carry the (patched) labeling only, never the edge overlay:
  /// LoadMapped(dag, region) treats `dag` as the new base graph with zero
  /// inserted edges. Callers that inserted edges before saving must
  /// therefore pass the ACCUMULATED graph (base plus every inserted edge —
  /// e.g. rebuilt via CollectEdges + the inserted list); passing the original
  /// base graph would answer queries correctly at first (the labels carry
  /// the patches) but compute later InsertEdge patches and Rebuild() over
  /// a graph that is missing the pre-save edges.
  ///
  /// LoadMapped serves the labeling straight from the mapping; the first
  /// InsertEdge unseals, which copies the labels out and releases it.
  bool SupportsSnapshot() const override { return true; }
  Status SaveIndex(std::ostream& out) const override {
    return labeling_.Write(out);
  }

  /// Inserts edge (u, v) and patches the labeling. Fails with
  /// InvalidArgument when the edge would close a cycle or ids are out of
  /// range. O(affected vertices x label size); no full rebuild.
  Status InsertEdge(Vertex u, Vertex v);

  /// Number of edges inserted since Build.
  size_t inserted_edges() const { return inserted_.size(); }

  /// Rebuilds from scratch over the accumulated graph, restoring the
  /// non-redundancy property that incremental patches forfeit.
  Status Rebuild();

  std::string name() const override { return "DL+dyn"; }
  uint64_t IndexSizeIntegers() const override {
    return labeling_.TotalEntries();
  }
  uint64_t IndexSizeBytes() const override { return labeling_.MemoryBytes(); }

  const LabelStore& labeling() const { return labeling_; }

 private:
  // Adjacency including inserted edges (CSR base + dynamic overlay).
  std::vector<Vertex> OutNeighbors(Vertex v) const;
  std::vector<Vertex> InNeighbors(Vertex v) const;

  /// LoadMapped tail: fresh overlay over the new base graph.
  void ResetOverlay(const Digraph& dag);

  DistributionOptions options_;
  Digraph base_;
  std::vector<Edge> inserted_;
  std::vector<std::vector<Vertex>> extra_out_;
  std::vector<std::vector<Vertex>> extra_in_;
  LabelStore labeling_;
  std::vector<Vertex> order_;          // Hop vertex by key.
  std::vector<uint32_t> key_of_;       // Vertex -> key.
  mutable std::vector<uint32_t> mark_;
  mutable uint32_t epoch_ = 0;
};

}  // namespace reach

#endif  // REACH_CORE_DYNAMIC_LABELING_H_
