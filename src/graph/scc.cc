#include "graph/scc.h"

#include <algorithm>
#include <cstdint>

namespace reach {

namespace {

constexpr uint32_t kUnvisited = UINT32_MAX;

}  // namespace

std::vector<Vertex> StronglyConnectedComponents(const Digraph& g,
                                                size_t* num_components) {
  const size_t n = g.num_vertices();
  std::vector<uint32_t> index(n, kUnvisited);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<Vertex> component(n, 0);
  std::vector<Vertex> stack;            // Tarjan's vertex stack.
  stack.reserve(64);

  // Explicit DFS frame: vertex + position within its out-neighbor list.
  struct Frame {
    Vertex v;
    uint32_t next_child;
  };
  std::vector<Frame> call_stack;

  uint32_t next_index = 0;
  size_t next_component = 0;

  for (Vertex root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call_stack.push_back(Frame{root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const Vertex v = frame.v;
      auto nbrs = g.OutNeighbors(v);
      if (frame.next_child < nbrs.size()) {
        const Vertex w = nbrs[frame.next_child++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back(Frame{w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        // v is finished: pop a root's component, propagate lowlink upward.
        if (lowlink[v] == index[v]) {
          while (true) {
            const Vertex w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            component[w] = static_cast<Vertex>(next_component);
            if (w == v) break;
          }
          ++next_component;
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const Vertex parent = call_stack.back().v;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }
  if (num_components != nullptr) *num_components = next_component;
  return component;
}

Condensation CondenseToDag(const Digraph& g) {
  Condensation result;
  result.component = StronglyConnectedComponents(g, &result.num_components);

  if (result.num_components == g.num_vertices()) {
    // Every SCC is trivial: use the identity condensation instead of
    // Tarjan's completion-order numbering. This keeps label keys in
    // original vertex-id space for DAG inputs, which is what lets a saved
    // index be re-served without recomputing SCCs (the snapshot's vertex
    // count then matches the raw graph; see ReachabilityIndex::LoadMapped).
    for (Vertex v = 0; v < g.num_vertices(); ++v) result.component[v] = v;
    result.dag = g;
    return result;
  }

  std::vector<Edge> dag_edges;
  dag_edges.reserve(g.num_edges() / 2);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const Vertex cv = result.component[v];
    for (Vertex w : g.OutNeighbors(v)) {
      const Vertex cw = result.component[w];
      if (cv != cw) dag_edges.push_back(Edge{cv, cw});
    }
  }
  result.dag = Digraph::FromEdges(result.num_components, std::move(dag_edges));
  return result;
}

}  // namespace reach
