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

#include "core/labeling_oracle.h"

namespace reach {

/// Set-cover based 2-hop labeling ("2HOP" table column). Hop keys are
/// vertex ids. A snapshot restart skips the closure materialization and
/// the set-cover greedy entirely.
class TwoHopOracle : public LabelingOracle {
 public:
  std::string name() const override { return "2HOP"; }

 protected:
  Status BuildIndex(const Dag& dag) override;
};

}  // namespace reach

#endif  // REACH_BASELINES_TWOHOP_H_
