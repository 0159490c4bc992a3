#include "baselines/pruned_landmark.h"

#include <algorithm>
#include <utility>

#include "core/backbone.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace reach {

uint32_t PrunedLandmarkOracle::Distance(Vertex u, Vertex v) const {
  return u == v ? 0 : MergeDistance(OutLabel(u), InLabel(v));
}

uint32_t PrunedLandmarkOracle::MergeDistance(std::span<const Entry> a,
                                             std::span<const Entry> b) {
  // O(1) key-window rejection before any scan: entries are sorted by
  // landmark key, so disjoint [front, back] key windows share no landmark.
  if (a.empty() || b.empty() || a.back().key < b.front().key ||
      b.back().key < a.front().key) {
    return kUnreachable;
  }
  uint32_t best = kUnreachable;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].key < b[j].key) {
      ++i;
    } else if (b[j].key < a[i].key) {
      ++j;
    } else {
      const uint32_t total = a[i].dist + b[j].dist;
      best = std::min(best, total);
      ++i;
      ++j;
    }
  }
  return best;
}

void PrunedLandmarkOracle::Seal(Rows* out, Rows* in) {
  const auto seal_side = [](Rows* build, std::vector<uint64_t>* offsets,
                            std::vector<Entry>* entries) {
    uint64_t total = 0;
    for (const auto& label : *build) total += label.size();
    *offsets = {};
    offsets->reserve(build->size() + 1);
    *entries = {};
    entries->reserve(static_cast<size_t>(total));
    offsets->push_back(0);
    for (const auto& label : *build) {
      entries->insert(entries->end(), label.begin(), label.end());
      offsets->push_back(entries->size());
    }
    Rows().swap(*build);
  };
  seal_side(out, &out_offsets_, &out_entries_);
  seal_side(in, &in_offsets_, &in_entries_);
}

Status PrunedLandmarkOracle::BuildIndex(const Dag& proven) {
  Timer timer;
  const Digraph& dag = proven.graph();
  const size_t n = dag.num_vertices();
  // Build phase: the pruned BFS prune predicate asks for distances while
  // the labels are still growing, so it merges the growing rows. Nothing
  // reads the sealed arrays (or a previous build's) until Seal.
  Rows build_out(n);
  Rows build_in(n);
  const auto build_distance = [&build_out, &build_in](Vertex u, Vertex v) {
    return u == v ? 0 : MergeDistance(build_out[u], build_in[v]);
  };
  if (n == 0) {
    Seal(&build_out, &build_in);
    return Status::OK();
  }

  // Landmark order: the paper's degree-product rank (DL's kDegreeProduct).
  const int threads = build_threads();
  std::vector<uint64_t> rank(n);
  std::vector<Vertex> order(n);
  for (Vertex v = 0; v < n; ++v) order[v] = v;
  ParallelFor(0, n, 4096, threads,
              [&](size_t v) { rank[v] = DegreeProductRank(dag, v); });
  std::sort(order.begin(), order.end(), [&rank](Vertex a, Vertex b) {
    return rank[a] != rank[b] ? rank[a] > rank[b] : a < b;
  });

  // The landmark loop is inherently sequential (later landmarks prune
  // against earlier labels), and so is each pruned BFS: a plain queue
  // loop, run once per direction. A vertex is marked when discovered and
  // tested when popped; the hop itself is admitted at depth 0 untested
  // (build_distance(hop, hop) is 0, which would prune it).
  // Testing at pop time admits the same sets as testing at discovery:
  // the prune test for x at depth d reads Lout(hop)/Lin(x) (forward) or
  // Lout(x)/Lin(hop) (backward), none of which an admission of another
  // vertex in the same search writes — and the current key cannot
  // certify a candidate (it enters Lout(hop) only after the forward
  // sweep, and never both sides of one test). Each row receives at most
  // one entry per key, in key order, whatever order a search pops in.
  std::vector<uint32_t> mark(n, 0);
  uint32_t epoch = 0;
  std::vector<std::pair<Vertex, uint32_t>> queue;  // (vertex, depth)
  // Forward: hop reaches x at distance d => (key, d) in Lin(x), unless the
  // labels already certify Distance(hop, x) <= d (then x's whole subtree
  // is pruned). Backward: x reaches hop => (key, d) in Lout(x), likewise.
  const auto pruned_bfs = [&](uint32_t key, bool forward) {
    const Vertex hop = order[key];
    Rows& rows = forward ? build_in : build_out;
    ++epoch;
    mark[hop] = epoch;
    queue.assign(1, {hop, 0});
    for (size_t head = 0; head < queue.size(); ++head) {
      const auto [x, d] = queue[head];
      if (x != hop && (forward ? build_distance(hop, x)
                               : build_distance(x, hop)) <= d) {
        continue;
      }
      rows[x].push_back(Entry{key, d});
      for (const Vertex w :
           forward ? dag.OutNeighbors(x) : dag.InNeighbors(x)) {
        if (mark[w] == epoch) continue;
        mark[w] = epoch;
        queue.emplace_back(w, d + 1);
      }
    }
  };
  for (uint32_t key = 0; key < n; ++key) {
    if (budget_.max_seconds > 0 &&
        timer.ElapsedSeconds() > budget_.max_seconds) {
      return Status::ResourceExhausted("PL over time budget");
    }
    pruned_bfs(key, /*forward=*/true);
    pruned_bfs(key, /*forward=*/false);
  }
  Seal(&build_out, &build_in);
  return Status::OK();
}

uint64_t PrunedLandmarkOracle::IndexSizeIntegers() const {
  return 2 * (static_cast<uint64_t>(out_entries_.size()) + in_entries_.size());
}

uint64_t PrunedLandmarkOracle::IndexSizeBytes() const {
  return (out_offsets_.capacity() + in_offsets_.capacity()) *
             sizeof(uint64_t) +
         (out_entries_.capacity() + in_entries_.capacity()) * sizeof(Entry);
}

}  // namespace reach
