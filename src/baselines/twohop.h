// 2HOP: Cohen, Halperin, Kaplan, Zwick's set-cover based 2-hop labeling
// [13], the classical reachability oracle the paper's HL/DL are measured
// against. The greedy repeatedly picks the hop whose label additions cover
// the most still-uncovered transitive-closure pairs per label entry. As in
// the paper, construction requires the materialized transitive closure and
// is by far the most expensive builder here — that cost is the baseline's
// defining property (Tables 4 and 7). We implement the "fast heuristics"
// variant the paper mentions ([29], [20]): a lazy-greedy priority queue over
// hops with gain recomputation on pop, and zero-gain endpoints are excluded
// from label additions (the degenerate step of densest-subgraph peeling).

#ifndef REACH_BASELINES_TWOHOP_H_
#define REACH_BASELINES_TWOHOP_H_

#include <string>
#include <vector>

#include "core/label_store.h"
#include "core/oracle.h"
#include "graph/digraph.h"

namespace reach {

/// Set-cover based 2-hop labeling ("2HOP" table column).
class TwoHopOracle : public ReachabilityOracle {
 protected:
  Status BuildIndex(const Dag& dag) override;
  Status LoadIndexMapped(const Digraph& dag, MappedRegion region) override;

 public:

  bool Reachable(Vertex u, Vertex v) const override {
    return u == v || labeling_.Query(u, v);
  }

  /// Snapshots: the whole query state is the sealed labeling blob, so a
  /// restart can skip the TC materialization + set-cover greedy entirely.
  /// LoadMapped serves the blob in place.
  bool SupportsSnapshot() const override { return true; }
  Status SaveIndex(std::ostream& out) const override {
    return labeling_.Write(out);
  }

  std::string name() const override { return "2HOP"; }
  uint64_t IndexSizeIntegers() const override {
    return labeling_.TotalEntries();
  }
  uint64_t IndexSizeBytes() const override { return labeling_.MemoryBytes(); }

  const LabelStore& labeling() const { return labeling_; }

 private:
  LabelStore labeling_;  // Hop keys are vertex ids.
};

}  // namespace reach

#endif  // REACH_BASELINES_TWOHOP_H_
