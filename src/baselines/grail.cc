#include "baselines/grail.h"

#include <algorithm>

#include "util/rng.h"

namespace reach {

namespace {

// One randomized post-order labeling pass: children are visited in random
// order; hi = post-order rank, lo = min rank in the subtree (over the DFS
// tree actually traversed, which is what makes the interval an
// over-approximation usable only for pruning).
void RandomIntervalPass(const Digraph& g, Rng* rng, std::vector<uint32_t>* lo,
                        std::vector<uint32_t>* hi) {
  const size_t n = g.num_vertices();
  lo->assign(n, 0);
  hi->assign(n, 0);
  std::vector<uint8_t> state(n, 0);  // 0 = unvisited, 1 = open, 2 = done.
  std::vector<Vertex> roots;
  for (Vertex v = 0; v < n; ++v) {
    if (g.InDegree(v) == 0) roots.push_back(v);
  }
  Shuffle(&roots, rng);

  uint32_t next_rank = 1;
  struct Frame {
    Vertex v;
    uint32_t next_child;
    std::vector<Vertex> children;
  };
  std::vector<Frame> stack;
  auto visit_root = [&](Vertex root) {
    if (state[root] != 0) return;
    state[root] = 1;
    std::vector<Vertex> children(g.OutNeighbors(root).begin(),
                                 g.OutNeighbors(root).end());
    Shuffle(&children, rng);
    stack.push_back(Frame{root, 0, std::move(children)});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next_child < frame.children.size()) {
        const Vertex w = frame.children[frame.next_child++];
        if (state[w] == 0) {
          state[w] = 1;
          std::vector<Vertex> grand(g.OutNeighbors(w).begin(),
                                    g.OutNeighbors(w).end());
          Shuffle(&grand, rng);
          stack.push_back(Frame{w, 0, std::move(grand)});
        }
      } else {
        // Post-order: lo = min over (already final) children lo's.
        uint32_t min_lo = next_rank;
        for (Vertex w : frame.children) {
          min_lo = std::min(min_lo, (*lo)[w]);
        }
        (*lo)[frame.v] = min_lo;
        (*hi)[frame.v] = next_rank++;
        state[frame.v] = 2;
        stack.pop_back();
      }
    }
  };
  for (Vertex root : roots) visit_root(root);
  // Vertices unreachable from any zero-in-degree root (possible only in
  // cyclic graphs; in a DAG roots cover everything, but stay safe).
  for (Vertex v = 0; v < n; ++v) {
    if (state[v] == 0) visit_root(v);
  }
}

}  // namespace

Status GrailOracle::BuildIndex(const Dag& dag) {
  graph_ = dag.graph();
  lo_.resize(options_.num_labelings);
  hi_.resize(options_.num_labelings);
  Rng rng(options_.seed);
  for (int k = 0; k < options_.num_labelings; ++k) {
    Rng pass_rng = rng.Fork(k);
    RandomIntervalPass(graph_, &pass_rng, &lo_[k], &hi_[k]);
  }
  mark_.assign(dag.num_vertices(), 0);
  epoch_ = 0;
  return Status::OK();
}

bool GrailOracle::IntervalsAdmit(Vertex u, Vertex v) const {
  // u can reach v only if v's interval is contained in u's in EVERY labeling.
  for (size_t k = 0; k < lo_.size(); ++k) {
    if (lo_[k][v] < lo_[k][u] || hi_[k][v] > hi_[k][u]) return false;
  }
  return true;
}

bool GrailOracle::Reachable(Vertex u, Vertex v) const {
  if (u == v) return true;
  if (!IntervalsAdmit(u, v)) return false;
  // Guided DFS with interval pruning.
  ++epoch_;
  stack_.clear();
  stack_.push_back(u);
  mark_[u] = epoch_;
  while (!stack_.empty()) {
    const Vertex x = stack_.back();
    stack_.pop_back();
    for (Vertex w : graph_.OutNeighbors(x)) {
      if (w == v) return true;
      if (mark_[w] == epoch_) continue;
      mark_[w] = epoch_;
      if (IntervalsAdmit(w, v)) stack_.push_back(w);
    }
  }
  return false;
}

}  // namespace reach
