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

/// Materialized transitive closure: one reachability bitset per vertex,
/// in one of two directions. The descendant closure's row of v holds the
/// vertices v reaches; the ancestor closure's holds the vertices that reach
/// v, so it is the descendant closure transposed. Either is *reflexive*:
/// every row holds its own vertex.
class TransitiveClosure {
 public:
  enum class Direction { kDescendants, kAncestors };

  /// Computes the closure of a DAG by bitset DP. Fails with
  /// ResourceExhausted if n^2 bits would exceed `max_bytes` (0 =
  /// unlimited).
  ///
  /// Vertices are grouped by longest-path depth (to a sink for
  /// descendants, from a source for ancestors). A row depends only on the
  /// rows of its out- (in-) neighbours, all of smaller depth, so the rows
  /// of one stratum are independent and are OR-reduced on `threads`
  /// workers once the strata below are complete.
  /// Bitwise OR is commutative, so the closure is bit-identical for every
  /// thread count.
  static StatusOr<TransitiveClosure> Compute(
      const Dag& dag, size_t max_bytes = 0, int threads = 1,
      Direction direction = Direction::kDescendants);

  size_t num_vertices() const { return rows_.size(); }

  /// True if v is in u's row: u reaches v (descendants) or v reaches u
  /// (ancestors), including u == v.
  bool Reachable(Vertex u, Vertex v) const { return rows_[u].Test(v); }

  /// Bitset of v's row: TC(v) (descendants) or TC^-1(v) (ancestors), both
  /// including v.
  const Bitset& Row(Vertex v) const { return rows_[v]; }

  /// Number of reachable pairs, including the n reflexive ones.
  uint64_t TotalPairs() const;

  /// The vertices of v's row, ascending (includes v).
  std::vector<Vertex> ReachableSet(Vertex v) const;

 private:
  std::vector<Bitset> rows_;
};

}  // namespace reach

#endif  // REACH_GRAPH_TRANSITIVE_CLOSURE_H_
