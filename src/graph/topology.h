// Topological ordering and related DAG utilities.

#ifndef REACH_GRAPH_TOPOLOGY_H_
#define REACH_GRAPH_TOPOLOGY_H_

#include <optional>
#include <vector>

#include "graph/digraph.h"
#include "util/status.h"

namespace reach {

/// Topological order of a DAG via Kahn's algorithm. Returns std::nullopt if
/// the graph has a cycle. order[i] = i-th vertex in topological order.
std::optional<std::vector<Vertex>> TopologicalOrder(const Digraph& g);

/// Inverse permutation: position[v] = index of v in `order`.
std::vector<uint32_t> OrderPositions(const std::vector<Vertex>& order);

/// A digraph proven acyclic, with the proof: its Kahn topological order,
/// exactly what TopologicalOrder returns (the labelings depend on which
/// order they get). Check is the only way to make one, so code that takes
/// a Dag trusts it and never sorts again. It refers to its graph, which
/// must outlive it.
class Dag {
 public:
  /// One Kahn pass over `g`: the Dag, or InvalidArgument on a cycle.
  static StatusOr<Dag> Check(const Digraph& g);

  const Digraph& graph() const { return *graph_; }
  size_t num_vertices() const { return order_.size(); }
  /// order()[i] = the i-th vertex in Kahn's topological order.
  const std::vector<Vertex>& order() const { return order_; }

  /// Longest-path level of every vertex: 0 at a source (at a sink, with
  /// `to_sinks`), else 1 + the max over its in- (out-) neighbours.
  std::vector<uint32_t> LongestPathLevels(bool to_sinks) const;

 private:
  Dag(const Digraph& g, std::vector<Vertex> order)
      : graph_(&g), order_(std::move(order)) {}

  const Digraph* graph_;
  std::vector<Vertex> order_;
};

/// BFS distances (unit weights) from `source`, UINT32_MAX if unreachable.
std::vector<uint32_t> BfsDistances(const Digraph& g, Vertex source);

/// True if `target` is reachable from `source` by forward BFS.
bool BfsReachable(const Digraph& g, Vertex source, Vertex target);

}  // namespace reach

#endif  // REACH_GRAPH_TOPOLOGY_H_
