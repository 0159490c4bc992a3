// GRAIL (Yildirim, Chaoji, Zaki; PVLDB 2010): scalable online search with
// random-traversal interval labels. Each of k random post-order DFS passes
// assigns vertex v the interval [min post-order rank of any descendant,
// v's own rank]. Containment of intervals is necessary for reachability, so
// a non-containment in any labeling prunes the guided DFS. k = 5 follows the
// paper's setup (Section 6.1).

#ifndef REACH_BASELINES_GRAIL_H_
#define REACH_BASELINES_GRAIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "graph/digraph.h"

namespace reach {

struct GrailOptions {
  /// Number of independent random interval labelings.
  int num_labelings = 5;
  uint64_t seed = 2013;
};

/// GRAIL reachability index (labels + pruned online DFS).
class GrailOracle : public ReachabilityOracle {
 public:
  explicit GrailOracle(GrailOptions options = {}) : options_(options) {}

 protected:
  Status BuildIndex(const Dag& dag) override;

 public:
  bool Reachable(Vertex u, Vertex v) const override;

  std::string name() const override { return "GL"; }
  /// The guided DFS reuses the mark/stack scratch below across queries.
  bool ConcurrentQuerySafe() const override { return false; }
  uint64_t IndexSizeIntegers() const override {
    // Two integers (lo, hi) per vertex per labeling.
    return static_cast<uint64_t>(2) * options_.num_labelings *
           graph_.num_vertices();
  }
  uint64_t IndexSizeBytes() const override {
    return IndexSizeIntegers() * sizeof(uint32_t);
  }

  /// True when the labels alone cannot rule the pair out (used in tests:
  /// interval pruning must never produce a false negative).
  bool IntervalsAdmit(Vertex u, Vertex v) const;

 private:
  GrailOptions options_;
  Digraph graph_;
  // lo_[k][v], hi_[k][v]: interval of v in the k-th labeling.
  std::vector<std::vector<uint32_t>> lo_;
  std::vector<std::vector<uint32_t>> hi_;
  mutable std::vector<uint32_t> mark_;
  mutable uint32_t epoch_ = 0;
  mutable std::vector<Vertex> stack_;
};

}  // namespace reach

#endif  // REACH_BASELINES_GRAIL_H_
