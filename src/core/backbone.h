// One-side reachability backbone (paper Definition 1, from SCARAB [23]) and
// a FastCover-style greedy constructor. For locality threshold epsilon, the
// backbone G* = (V*, E*) satisfies: for every pair (u, v) with d(u, v) =
// epsilon there is w in V* with d(u, w) <= epsilon and d(w, v) <= epsilon;
// E* links backbone pairs within distance epsilon + 1, with the paper's
// redundancy rule (edges whose witness runs through another local backbone
// vertex are dropped) implemented by not expanding BFS through backbone
// vertices.

#ifndef REACH_CORE_BACKBONE_H_
#define REACH_CORE_BACKBONE_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "util/status.h"

namespace reach {

/// Parameters of backbone extraction.
struct BackboneOptions {
  /// Locality threshold. The paper studies epsilon = 2 (default) and notes
  /// that epsilon = 1 degenerates to a vertex-cover backbone (TF-label).
  int epsilon = 2;
  /// Midpoint guard: a vertex whose (in-degree x out-degree) exceeds this is
  /// promoted to the backbone outright instead of having all its distance-2
  /// pairs enumerated. Keeps extraction near-linear on hub-heavy graphs.
  uint64_t hub_pair_cap = 1 << 22;
};

/// A backbone over the *same* vertex-id space as its parent graph: only
/// members of `vertices` carry edges in `graph`.
struct Backbone {
  /// Sorted backbone vertex set V*.
  std::vector<Vertex> vertices;
  /// Membership mask over the parent id space.
  std::vector<bool> is_backbone;
  /// Backbone graph G* (same id space as the parent).
  Digraph graph;
};

/// Extracts a one-side reachability backbone of `g` restricted to the sorted
/// member set `members` (pass all vertices for the first level). `g` must be
/// a DAG whose edges only join members.
StatusOr<Backbone> ExtractBackbone(const Digraph& g,
                                   const std::vector<Vertex>& members,
                                   const BackboneOptions& options);

/// Degree-product rank used to prioritize hub vertices, the paper's
/// (|Nout(v)|+1) * (|Nin(v)|+1) importance score (Section 5.2).
inline uint64_t DegreeProductRank(const Digraph& g, Vertex v) {
  return (static_cast<uint64_t>(g.OutDegree(v)) + 1) *
         (static_cast<uint64_t>(g.InDegree(v)) + 1);
}

/// Bounded forward (or backward) BFS in `g` from `source`, at most
/// `max_depth` steps deep. The mark and queue arrays are reused across
/// runs, so a run allocates nothing once they have grown.
class BoundedBfs {
 public:
  explicit BoundedBfs(size_t num_vertices)
      : mark_(num_vertices, 0), epoch_(0) {}

  /// Runs the bounded BFS. Every vertex w the search discovers (the source
  /// excluded) is passed to `visit(w, depth)` once, at its BFS depth; then
  /// `prune(w)` decides whether w's neighbours are explored: a pruned
  /// vertex is visited but not expanded. What to collect is the caller's
  /// choice in `visit` (e.g. only the vertices `prune` fires on).
  template <typename PruneFn, typename VisitFn>
  void Run(const Digraph& g, Vertex source, uint32_t max_depth, bool forward,
           PruneFn prune, VisitFn visit) {
    ++epoch_;
    queue_.clear();
    queue_.push_back(source);
    depth_.clear();
    depth_.push_back(0);
    mark_[source] = epoch_;
    for (size_t head = 0; head < queue_.size(); ++head) {
      const Vertex v = queue_[head];
      const uint32_t d = depth_[head];
      if (d >= max_depth) continue;
      auto nbrs = forward ? g.OutNeighbors(v) : g.InNeighbors(v);
      for (Vertex w : nbrs) {
        if (mark_[w] == epoch_) continue;
        mark_[w] = epoch_;
        visit(w, d + 1);
        if (!prune(w)) {
          queue_.push_back(w);
          depth_.push_back(d + 1);
        }
      }
    }
  }

 private:
  std::vector<uint32_t> mark_;
  uint32_t epoch_;
  std::vector<Vertex> queue_;
  std::vector<uint32_t> depth_;
};

}  // namespace reach

#endif  // REACH_CORE_BACKBONE_H_
