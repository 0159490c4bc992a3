// Full transitive-closure materialization. Quadratic memory: only suitable
// for small graphs. Serves as (a) ground truth in tests, (b) the substrate of
// the set-cover 2HOP baseline, and (c) the K-Reach cover matrix.

#ifndef REACH_GRAPH_TRANSITIVE_CLOSURE_H_
#define REACH_GRAPH_TRANSITIVE_CLOSURE_H_

#include <vector>

#include "graph/digraph.h"
#include "graph/topology.h"
#include "util/bitset.h"
#include "util/status.h"

namespace reach {

/// Materialized transitive closure: one reachability bitset per vertex.
/// The closure is *reflexive*: Reachable(v, v) is always true.
class TransitiveClosure {
 public:
  /// Computes the closure of a DAG by bitset DP. Fails with
  /// ResourceExhausted if n^2 bits would exceed `max_bytes` (0 =
  /// unlimited).
  ///
  /// Vertices are grouped by longest-path-to-sink depth, and within one
  /// depth stratum every row depends only on strictly deeper (already
  /// complete) rows, so the rows of a stratum are OR-reduced on `threads`
  /// workers. Bitwise OR is commutative, so the closure is bit-identical
  /// for every thread count.
  static StatusOr<TransitiveClosure> Compute(const Dag& dag,
                                             size_t max_bytes = 0,
                                             int threads = 1);

  size_t num_vertices() const { return rows_.size(); }

  /// True if u reaches v (including u == v).
  bool Reachable(Vertex u, Vertex v) const { return rows_[u].Test(v); }

  /// Bitset of all vertices reachable from v (TC(v), includes v).
  const Bitset& Row(Vertex v) const { return rows_[v]; }

  /// Number of reachable pairs, including the n reflexive ones.
  uint64_t TotalPairs() const;

  /// Vertices reachable from v, ascending (includes v).
  std::vector<Vertex> ReachableSet(Vertex v) const;

 private:
  std::vector<Bitset> rows_;
};

}  // namespace reach

#endif  // REACH_GRAPH_TRANSITIVE_CLOSURE_H_
