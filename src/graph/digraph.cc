#include "graph/digraph.h"

#include <algorithm>
#include <cassert>

#include "util/thread_pool.h"

namespace reach {

Digraph Digraph::FromEdges(size_t num_vertices, std::vector<Edge> edges,
                           bool keep_self_loops) {
  if (!keep_self_loops) {
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [](const Edge& e) { return e.from == e.to; }),
                edges.end());
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  Digraph g;
  g.num_vertices_ = num_vertices;
  g.out_offsets_.assign(num_vertices + 1, 0);
  g.in_offsets_.assign(num_vertices + 1, 0);
  g.heads_.resize(edges.size());
  g.tails_.resize(edges.size());

  for (const Edge& e : edges) {
    assert(e.from < num_vertices && e.to < num_vertices);
    ++g.out_offsets_[e.from + 1];
    ++g.in_offsets_[e.to + 1];
  }
  for (size_t v = 0; v < num_vertices; ++v) {
    g.out_offsets_[v + 1] += g.out_offsets_[v];
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  }
  // Edges are sorted by (from, to), so forward CSR fills in order.
  std::vector<uint64_t> in_cursor(g.in_offsets_.begin(),
                                  g.in_offsets_.end() - 1);
  size_t out_pos = 0;
  for (const Edge& e : edges) {
    g.heads_[out_pos++] = e.to;
    g.tails_[in_cursor[e.to]++] = e.from;
  }
  // Reverse lists were filled in (from, to) order, hence already sorted
  // ascending by tail vertex id within each bucket.
  return g;
}

Digraph Digraph::FromCsr(size_t num_vertices,
                         CsrVector<uint64_t> out_offsets,
                         CsrVector<Vertex> heads, int threads) {
  assert(out_offsets.size() == num_vertices + 1);
  assert(out_offsets.front() == 0 && out_offsets.back() == heads.size());

  Digraph g;
  g.num_vertices_ = num_vertices;
  g.out_offsets_ = std::move(out_offsets);
  g.heads_ = std::move(heads);
  g.in_offsets_.resize(num_vertices + 1);
  g.tails_.resize(g.heads_.size());
  // Target ranges split the ids evenly; each participant walks every edge.
  const size_t parts = static_cast<size_t>(std::max(threads, 1));
  ParallelChunks(0, parts, 1, static_cast<int>(parts),
                 [&](const ChunkInfo& part) {
                   g.FillInRows(num_vertices * part.begin / parts,
                                num_vertices * part.end / parts);
                 });
  g.in_offsets_[num_vertices] = g.heads_.size();
  return g;
}

void Digraph::FillInRows(size_t lo, size_t hi) {
  // Count each in-degree at its own index and take inclusive prefix sums
  // from the edges into targets below `lo`: in_offsets_[w] is then the end
  // of w's bucket. Then fill every bucket from its end while walking
  // sources descending. Each slot steps back to its bucket's start, and
  // every bucket ends up sorted ascending.
  uint64_t* const ends = in_offsets_.data();
  std::fill(ends + lo, ends + hi, uint64_t{0});
  // A target below `lo` wraps past `span`, so one compare tells "mine".
  const size_t span = hi - lo;
  uint64_t below = 0;
  for (const Vertex w : heads_) {
    assert(w < num_vertices_);
    if (w - lo < span) {
      ++ends[w];
    } else {
      below += w < lo;
    }
  }
  for (size_t w = lo; w < hi; ++w) {
    below += ends[w];
    ends[w] = below;
  }
  for (size_t v = num_vertices_; v-- > 0;) {
    for (const Vertex w : OutNeighbors(static_cast<Vertex>(v))) {
      if (w - lo < span) tails_[--ends[w]] = static_cast<Vertex>(v);
    }
  }
}

bool Digraph::HasEdge(Vertex u, Vertex v) const {
  auto nbrs = OutNeighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Digraph::CollectEdges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (Vertex v = 0; v < num_vertices_; ++v) {
    for (Vertex w : OutNeighbors(v)) edges.push_back(Edge{v, w});
  }
  return edges;
}

Digraph Digraph::Reversed() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  for (Vertex v = 0; v < num_vertices_; ++v) {
    for (Vertex w : OutNeighbors(v)) edges.push_back(Edge{w, v});
  }
  return FromEdges(num_vertices_, std::move(edges));
}

Digraph Digraph::InducedSubgraphSameIds(
    const std::vector<Vertex>& members) const {
  std::vector<bool> in_set(num_vertices_, false);
  for (Vertex v : members) in_set[v] = true;
  std::vector<Edge> edges;
  for (Vertex v : members) {
    for (Vertex w : OutNeighbors(v)) {
      if (in_set[w]) edges.push_back(Edge{v, w});
    }
  }
  return FromEdges(num_vertices_, std::move(edges));
}

size_t Digraph::MemoryBytes() const {
  return out_offsets_.size() * sizeof(uint64_t) +
         in_offsets_.size() * sizeof(uint64_t) +
         heads_.size() * sizeof(Vertex) + tails_.size() * sizeof(Vertex);
}

}  // namespace reach
