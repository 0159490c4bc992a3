// K-Reach (Cheng et al., PVLDB 2012) specialized to basic reachability
// (k = infinity), as benchmarked in the paper's Section 6.1. A vertex cover
// S is found greedily; the full reachability matrix among cover vertices is
// materialized. Since every edge has an endpoint in S, a path's second and
// second-to-last vertices (or its endpoints) provide cover entry/exit
// points, so four matrix-lookup cases answer any query.

#ifndef REACH_BASELINES_KREACH_H_
#define REACH_BASELINES_KREACH_H_

#include <string>
#include <vector>

#include "core/oracle.h"
#include "graph/digraph.h"
#include "util/bitset.h"

namespace reach {

/// Vertex-cover based reachability index ("KR" table column).
class KReachOracle : public ReachabilityOracle {
 protected:
  Status BuildIndex(const Dag& dag) override;

 public:
  bool Reachable(Vertex u, Vertex v) const override;

  std::string name() const override { return "KR"; }
  uint64_t IndexSizeIntegers() const override;
  uint64_t IndexSizeBytes() const override;

  size_t cover_size() const { return cover_.size(); }

 private:
  /// True iff cover vertex (by cover index) ci reaches cover vertex cj.
  bool CoverReach(uint32_t ci, uint32_t cj) const {
    return matrix_[ci].Test(cj);
  }

  Digraph graph_;
  std::vector<Vertex> cover_;           // Sorted cover vertex ids.
  std::vector<uint32_t> cover_index_;   // id -> index in cover_, or UINT32_MAX.
  std::vector<Bitset> matrix_;          // |S| x |S| reflexive reachability.
};

}  // namespace reach

#endif  // REACH_BASELINES_KREACH_H_
