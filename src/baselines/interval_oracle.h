// INT: Nuutila-style interval compression of the transitive closure (paper
// Section 2.1 and [26]). Vertices are renumbered along a DFS-flavored
// topological order so descendant sets tend to be contiguous; TC(v) is then
// kept as an IntervalSet computed bottom-up (reverse topological order) by
// unioning successor sets. A query u -> v is a binary search of v's number
// in TC(u)'s intervals.

#ifndef REACH_BASELINES_INTERVAL_ORACLE_H_
#define REACH_BASELINES_INTERVAL_ORACLE_H_

#include <string>
#include <vector>

#include "core/oracle.h"
#include "graph/digraph.h"
#include "util/interval_set.h"

namespace reach {

/// Interval-compressed transitive closure.
class IntervalOracle : public ReachabilityOracle {
 protected:
  Status BuildIndex(const Dag& dag) override;

 public:

  bool Reachable(Vertex u, Vertex v) const override {
    return u == v || closure_[u].Contains(number_[v]);
  }

  std::string name() const override { return "INT"; }
  uint64_t IndexSizeIntegers() const override;
  uint64_t IndexSizeBytes() const override;

  /// Total number of intervals stored (compression quality metric).
  uint64_t TotalIntervals() const;

 private:
  // number_[v] = v's position in the DFS-post-order-based renumbering.
  std::vector<uint32_t> number_;
  // closure_[v] = interval set of numbers reachable from v (incl. itself).
  std::vector<IntervalSet> closure_;
};

}  // namespace reach

#endif  // REACH_BASELINES_INTERVAL_ORACLE_H_
