#include "core/backbone.h"

#include <algorithm>

namespace reach {

namespace {

// Greedy vertex-cover backbone (epsilon = 1): every edge must have an
// endpoint in V*; uncovered edges promote their higher-rank endpoint.
void SelectVerticesEps1(const Digraph& g, const std::vector<Vertex>& order,
                        const std::vector<uint64_t>& rank,
                        std::vector<bool>* is_backbone) {
  for (Vertex u : order) {
    for (Vertex v : g.OutNeighbors(u)) {
      if ((*is_backbone)[u]) break;
      if ((*is_backbone)[v]) continue;
      (*is_backbone)[rank[u] >= rank[v] ? u : v] = true;
    }
  }
}

// Distance-2 pair-cover backbone (epsilon = 2): for every 2-path u -> x -> v
// with none of {u, x, v} selected, promote the highest-rank of the three
// (midpoint wins ties: it covers the entire in(x) X out(x) star).
void SelectVerticesEps2(const Digraph& g, const std::vector<Vertex>& order,
                        const std::vector<uint64_t>& rank,
                        uint64_t hub_pair_cap, std::vector<bool>* is_backbone) {
  for (Vertex u : order) {
    if ((*is_backbone)[u]) continue;
    for (Vertex x : g.OutNeighbors(u)) {
      if ((*is_backbone)[u]) break;
      if ((*is_backbone)[x]) continue;
      const uint64_t pairs = static_cast<uint64_t>(g.InDegree(x)) *
                             static_cast<uint64_t>(g.OutDegree(x));
      if (pairs > hub_pair_cap) {
        (*is_backbone)[x] = true;  // Hub guard: promote outright.
        continue;
      }
      for (Vertex v : g.OutNeighbors(x)) {
        if (v == u || (*is_backbone)[v]) continue;
        // Uncovered triple: greedy pick.
        Vertex pick = x;
        if (rank[u] > rank[x] && rank[u] >= rank[v]) {
          pick = u;
        } else if (rank[v] > rank[x] && rank[v] > rank[u]) {
          pick = v;
        }
        (*is_backbone)[pick] = true;
        if (pick == u) break;
        if (pick == x) break;
      }
      if ((*is_backbone)[u]) break;
    }
  }
}

}  // namespace

StatusOr<Backbone> ExtractBackbone(const Digraph& g,
                                   const std::vector<Vertex>& members,
                                   const BackboneOptions& options) {
  if (options.epsilon != 1 && options.epsilon != 2) {
    return Status::NotSupported("backbone extraction supports epsilon 1 or 2");
  }
  const size_t n = g.num_vertices();

  std::vector<uint64_t> rank(n, 0);
  for (Vertex v : members) rank[v] = DegreeProductRank(g, v);

  // Process high-rank vertices first: hubs enter the backbone early and
  // large swaths of pairs are covered before they are ever enumerated.
  std::vector<Vertex> order = members;
  std::sort(order.begin(), order.end(), [&rank](Vertex a, Vertex b) {
    return rank[a] != rank[b] ? rank[a] > rank[b] : a < b;
  });

  Backbone backbone;
  backbone.is_backbone.assign(n, false);
  if (options.epsilon == 1) {
    SelectVerticesEps1(g, order, rank, &backbone.is_backbone);
  } else {
    SelectVerticesEps2(g, order, rank, options.hub_pair_cap,
                       &backbone.is_backbone);
  }

  for (Vertex v = 0; v < n; ++v) {
    if (backbone.is_backbone[v]) backbone.vertices.push_back(v);
  }

  // E*: (epsilon+1)-bounded BFS from each backbone vertex, stopping at the
  // first backbone vertex on every path (the redundancy rule).
  std::vector<Edge> edges;
  BoundedBfs bfs(n);
  const uint32_t radius = static_cast<uint32_t>(options.epsilon) + 1;
  for (Vertex source : backbone.vertices) {
    bfs.Run(
        g, source, radius, /*forward=*/true,
        [&backbone](Vertex w) { return backbone.is_backbone[w]; },
        [&backbone, &edges, source](Vertex w, uint32_t /*depth*/) {
          if (backbone.is_backbone[w]) edges.push_back(Edge{source, w});
        });
  }
  backbone.graph = Digraph::FromEdges(n, std::move(edges));
  return backbone;
}

}  // namespace reach
