// Immutable directed graph in CSR (compressed sparse row) form, with both
// forward and reverse adjacency. All indexing structures in this library are
// built over this representation.

#ifndef REACH_GRAPH_DIGRAPH_H_
#define REACH_GRAPH_DIGRAPH_H_

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace reach {

/// Vertex identifier. Vertices are dense ids in [0, num_vertices).
using Vertex = uint32_t;

/// Directed edge (from, to).
struct Edge {
  Vertex from;
  Vertex to;

  bool operator==(const Edge& other) const {
    return from == other.from && to == other.to;
  }
  bool operator<(const Edge& other) const {
    return from != other.from ? from < other.from : to < other.to;
  }
};

/// std::allocator, except that a vector's value-less construct
/// default-initializes: resize() of a trivial element type allocates
/// without a zero fill, for arrays whose every slot is written next.
template <typename T>
struct NoFillAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = NoFillAllocator<U>;
  };
  NoFillAllocator() = default;
  template <typename U>
  NoFillAllocator(const NoFillAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// The storage of a CSR array: builders write every slot, so it is sized
/// without a fill, and its pages are first touched by whoever writes them.
template <typename T>
using CsrVector = std::vector<T, NoFillAllocator<T>>;

/// Immutable CSR digraph. Construct through GraphBuilder or FromEdges.
class Digraph {
 public:
  Digraph() = default;

  /// Builds a digraph with `num_vertices` vertices from an edge list.
  /// Duplicate edges are removed; self-loops are kept only if `keep_self_loops`.
  static Digraph FromEdges(size_t num_vertices, std::vector<Edge> edges,
                           bool keep_self_loops = false);

  /// Adopts an already-canonical forward CSR without materializing an edge
  /// list: `out_offsets` has num_vertices+1 monotone entries starting at 0,
  /// and each row heads[out_offsets[v] .. out_offsets[v+1]) is strictly
  /// ascending with ids < num_vertices (which rules out duplicates; rows
  /// may contain v itself only if the caller wants self-loops). The caller
  /// vouches for canonical form — the streamed readers validate while
  /// filling — and only the reverse CSR is derived here, in O(n + m) with
  /// no edge-vector or sort. This is the large-graph load path: FromEdges
  /// peaks at ~3x the final footprint (edge triples + both CSRs), FromCsr
  /// at the final footprint plus the reverse arrays it is building anyway.
  /// `threads` participants of the shared pool build the reverse CSR, each
  /// the in-rows of its own range of target ids: it walks every row in the
  /// serial order but counts and fills only its own targets, so every
  /// in-row is byte-identical at any thread count. Each walks all edges, so
  /// more threads pay only on a graph whose fill is bound by cache misses
  /// (about 10^6 edges and up); the caller picks the count.
  static Digraph FromCsr(size_t num_vertices, CsrVector<uint64_t> out_offsets,
                         CsrVector<Vertex> heads, int threads = 1);

  size_t num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return heads_.size(); }

  /// Out-neighbors of `v`, sorted ascending.
  std::span<const Vertex> OutNeighbors(Vertex v) const {
    return {heads_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }

  /// In-neighbors of `v`, sorted ascending.
  std::span<const Vertex> InNeighbors(Vertex v) const {
    return {tails_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  size_t OutDegree(Vertex v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  size_t InDegree(Vertex v) const { return in_offsets_[v + 1] - in_offsets_[v]; }

  /// True if the edge (u, v) exists. O(log OutDegree(u)).
  bool HasEdge(Vertex u, Vertex v) const;

  /// All edges, grouped by source ascending.
  std::vector<Edge> CollectEdges() const;

  /// Graph with every edge reversed.
  Digraph Reversed() const;

  /// Subgraph induced on the given sorted vertex subset, with the *same*
  /// vertex id space (non-members have no edges). Used by the hierarchical
  /// decomposition, which keeps global ids across levels.
  Digraph InducedSubgraphSameIds(const std::vector<Vertex>& members) const;

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const;

 private:
  /// Fills the in-rows of targets [lo, hi): in_offsets_[lo, hi) and their
  /// slots of tails_. FromCsr's work for one range of targets.
  void FillInRows(size_t lo, size_t hi);

  size_t num_vertices_ = 0;
  // CSR forward: heads_[out_offsets_[v] .. out_offsets_[v+1]) = out-neighbors.
  CsrVector<uint64_t> out_offsets_{0};
  CsrVector<Vertex> heads_;
  // CSR reverse: tails_[in_offsets_[v] .. in_offsets_[v+1]) = in-neighbors.
  CsrVector<uint64_t> in_offsets_{0};
  CsrVector<Vertex> tails_;
};

/// Incremental edge-list accumulator for building a Digraph.
class GraphBuilder {
 public:
  explicit GraphBuilder(size_t num_vertices = 0) : num_vertices_(num_vertices) {}

  /// Adds an edge, growing the vertex space if needed.
  void AddEdge(Vertex from, Vertex to) {
    num_vertices_ = std::max<size_t>(num_vertices_,
                                     std::max<size_t>(from, to) + 1);
    edges_.push_back(Edge{from, to});
  }

  /// Ensures the graph has at least `n` vertices.
  void EnsureVertices(size_t n) {
    num_vertices_ = std::max(num_vertices_, n);
  }

  size_t num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return edges_.size(); }

  /// Finalizes into an immutable CSR digraph; the builder is left empty.
  Digraph Build(bool keep_self_loops = false) {
    return Digraph::FromEdges(num_vertices_, std::move(edges_),
                              keep_self_loops);
  }

 private:
  size_t num_vertices_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace reach

#endif  // REACH_GRAPH_DIGRAPH_H_
