#include "baselines/kreach.h"

#include <algorithm>

#include "core/backbone.h"
#include "util/timer.h"

namespace reach {

Status KReachOracle::BuildIndex(const Dag& dag) {
  Timer timer;
  graph_ = dag.graph();
  const size_t n = dag.num_vertices();

  // Greedy vertex cover, high degree-product rank first (2-approx spirit:
  // any uncovered edge promotes an endpoint).
  std::vector<uint64_t> rank(n);
  std::vector<Vertex> order(n);
  for (Vertex v = 0; v < n; ++v) {
    rank[v] = DegreeProductRank(graph_, v);
    order[v] = v;
  }
  std::sort(order.begin(), order.end(), [&rank](Vertex a, Vertex b) {
    return rank[a] != rank[b] ? rank[a] > rank[b] : a < b;
  });
  std::vector<bool> in_cover(n, false);
  for (Vertex u : order) {
    for (Vertex v : graph_.OutNeighbors(u)) {
      if (in_cover[u]) break;
      if (!in_cover[v]) in_cover[rank[u] >= rank[v] ? u : v] = true;
    }
  }
  cover_.clear();
  cover_index_.assign(n, UINT32_MAX);
  for (Vertex v = 0; v < n; ++v) {
    if (in_cover[v]) {
      cover_index_[v] = static_cast<uint32_t>(cover_.size());
      cover_.push_back(v);
    }
  }

  // The paper notes K-Reach fails on large graphs because the pairwise
  // cover materialization is quadratic in |S|; mirror that with the budget.
  const size_t s = cover_.size();
  const uint64_t matrix_bytes = static_cast<uint64_t>(s) * ((s + 63) / 64) * 8;
  if (budget_.max_index_integers > 0 &&
      matrix_bytes / 4 > budget_.max_index_integers) {
    return Status::ResourceExhausted("K-Reach cover matrix over size budget");
  }

  // Reflexive reachability among cover vertices: one forward BFS per cover
  // vertex, recording cover hits.
  matrix_.assign(s, Bitset(s));
  std::vector<uint32_t> mark(n, 0);
  uint32_t epoch = 0;
  std::vector<Vertex> queue;
  for (uint32_t ci = 0; ci < s; ++ci) {
    const Vertex source = cover_[ci];
    ++epoch;
    queue.clear();
    queue.push_back(source);
    mark[source] = epoch;
    matrix_[ci].Set(ci);
    for (size_t head = 0; head < queue.size(); ++head) {
      for (Vertex w : graph_.OutNeighbors(queue[head])) {
        if (mark[w] == epoch) continue;
        mark[w] = epoch;
        if (cover_index_[w] != UINT32_MAX) matrix_[ci].Set(cover_index_[w]);
        queue.push_back(w);
      }
    }
    if ((ci & 0xff) == 0 && budget_.max_seconds > 0 &&
        timer.ElapsedSeconds() > budget_.max_seconds) {
      return Status::ResourceExhausted("K-Reach over time budget");
    }
  }
  return Status::OK();
}

bool KReachOracle::Reachable(Vertex u, Vertex v) const {
  if (u == v) return true;
  const uint32_t cu = cover_index_[u];
  const uint32_t cv = cover_index_[v];
  if (cu != UINT32_MAX && cv != UINT32_MAX) return CoverReach(cu, cv);
  if (cu != UINT32_MAX) {
    // v outside the cover: the last edge of any path into v starts in S.
    for (Vertex w : graph_.InNeighbors(v)) {
      const uint32_t cw = cover_index_[w];
      if (cw != UINT32_MAX && CoverReach(cu, cw)) return true;
    }
    return false;
  }
  if (cv != UINT32_MAX) {
    for (Vertex w : graph_.OutNeighbors(u)) {
      const uint32_t cw = cover_index_[w];
      if (cw != UINT32_MAX && CoverReach(cw, cv)) return true;
    }
    return false;
  }
  // Neither endpoint in S: no direct edge can exist (S is a vertex cover),
  // so some s1 in Nout(u) ∩ S and s2 in Nin(v) ∩ S must connect.
  for (Vertex w1 : graph_.OutNeighbors(u)) {
    const uint32_t c1 = cover_index_[w1];
    if (c1 == UINT32_MAX) continue;
    for (Vertex w2 : graph_.InNeighbors(v)) {
      const uint32_t c2 = cover_index_[w2];
      if (c2 != UINT32_MAX && CoverReach(c1, c2)) return true;
    }
  }
  return false;
}

uint64_t KReachOracle::IndexSizeIntegers() const {
  // Matrix bits rounded to 32-bit integers plus cover bookkeeping.
  const uint64_t s = cover_.size();
  return (s * s + 31) / 32 + s + cover_index_.size();
}

uint64_t KReachOracle::IndexSizeBytes() const {
  uint64_t bytes = cover_.size() * sizeof(Vertex) +
                   cover_index_.size() * sizeof(uint32_t);
  for (const Bitset& row : matrix_) bytes += row.MemoryBytes();
  return bytes;
}

}  // namespace reach
