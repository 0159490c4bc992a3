// Strongly connected components and DAG condensation. Reachability queries on
// a general digraph are answered on the condensation (paper Section 2: the
// directed graph is transformed into a DAG by coalescing SCCs).

#ifndef REACH_GRAPH_SCC_H_
#define REACH_GRAPH_SCC_H_

#include <vector>

#include "graph/digraph.h"

namespace reach {

/// Result of SCC decomposition + condensation.
struct Condensation {
  /// component[v] = SCC id of original vertex v. When every SCC is trivial
  /// (the input is already a DAG) the condensation is the identity:
  /// component[v] == v and `dag` is a copy of the input graph, so labels
  /// built on the condensation are keyed by original vertex ids and a
  /// saved index can later be served without recomputing SCCs (see
  /// ReachabilityIndex::LoadMapped). Otherwise SCC ids are dense and in
  /// reverse topological order of the condensation (Tarjan's property: a
  /// component is numbered before any component that reaches it).
  std::vector<Vertex> component;
  /// Number of SCCs.
  size_t num_components = 0;
  /// The condensed DAG over SCC ids (parallel edges removed).
  Digraph dag;
};

/// Computes SCCs with an iterative Tarjan algorithm (no recursion, safe for
/// million-vertex graphs) and builds the condensation DAG.
Condensation CondenseToDag(const Digraph& g);

/// Computes only the component assignment (no DAG), same numbering contract.
std::vector<Vertex> StronglyConnectedComponents(const Digraph& g,
                                                size_t* num_components);

}  // namespace reach

#endif  // REACH_GRAPH_SCC_H_
