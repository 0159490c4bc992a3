// Hierarchical DAG decomposition (paper Definition 2): V0 = V ⊃ V1 ⊃ ... ⊃ Vh
// with Gi = (Vi, Ei) the one-side reachability backbone of Gi-1. The final
// level Gh is the "core graph". Lower-level reachability is resolvable
// through upper levels (paper Lemma 1); Hierarchical Labeling exploits this
// to label top-down.

#ifndef REACH_CORE_HIERARCHY_H_
#define REACH_CORE_HIERARCHY_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/backbone.h"
#include "graph/digraph.h"
#include "graph/topology.h"
#include "util/status.h"

namespace reach {

/// Stop rules for the recursive decomposition. Defaults follow the paper's
/// practical guidance (Section 4.2): stop once the backbone is small
/// (roughly thousands of vertices) or after ~10 iterations.
struct HierarchyOptions {
  BackboneOptions backbone;
  /// Stop when |Vi| falls to or below this size.
  size_t core_size_threshold = 4096;
  /// Hard cap on the number of backbone extractions.
  int max_levels = 10;
  /// Stop when an extraction shrinks the vertex set by less than this factor
  /// (guards against stalling on graphs whose backbone barely shrinks).
  double min_shrink_factor = 0.95;
};

/// The computed decomposition. All level graphs share the original vertex-id
/// space; level i edges only join members of Vi.
class Hierarchy {
 public:
  /// Number of levels, h + 1 (level 0 is the full DAG, level h the core).
  size_t num_levels() const { return level_vertices_.size(); }
  size_t core_level() const { return num_levels() - 1; }

  /// Graph Gi; G0 is the graph of the Dag passed to Build, not a copy.
  /// Not after ReleaseLevelGraphs.
  const Digraph& LevelGraph(size_t i) const {
    assert(input_ != nullptr && "LevelGraph() after ReleaseLevelGraphs()");
    assert(i < num_levels());
    return i == 0 ? *input_ : backbones_[i - 1];
  }
  /// Frees the backbone graphs and drops the reference to G0 once their
  /// labels are built. The level sets and LevelOf stay.
  void ReleaseLevelGraphs() {
    input_ = nullptr;
    std::vector<Digraph>().swap(backbones_);
  }
  /// Sorted vertex set Vi.
  const std::vector<Vertex>& LevelVertices(size_t i) const {
    return level_vertices_[i];
  }
  /// level(v): the highest i with v in Vi (paper: v in Vi \ Vi+1).
  uint32_t LevelOf(Vertex v) const { return level_of_[v]; }
  /// True if v belongs to Vi.
  bool InLevel(Vertex v, size_t i) const { return level_of_[v] >= i; }

  int epsilon() const { return epsilon_; }

  /// Builds the decomposition of `dag`, whose graph must outlive every
  /// LevelGraph(0) call.
  static StatusOr<Hierarchy> Build(const Dag& dag,
                                   const HierarchyOptions& options);

 private:
  int epsilon_ = 2;
  const Digraph* input_ = nullptr;  // G0.
  std::vector<Digraph> backbones_;   // G1 .. Gh.
  std::vector<std::vector<Vertex>> level_vertices_;
  std::vector<uint32_t> level_of_;
};

}  // namespace reach

#endif  // REACH_CORE_HIERARCHY_H_
