#include "baselines/interval_oracle.h"

#include <algorithm>

#include "util/timer.h"

namespace reach {

namespace {

// Reverse DFS post-order numbering: descendants of tree edges receive
// contiguous ranges, which is what makes interval compression effective
// (Nuutila's key trick). Iterative DFS over all roots.
std::vector<uint32_t> DfsPostOrderNumbers(const Digraph& g) {
  const size_t n = g.num_vertices();
  std::vector<uint32_t> number(n, 0);
  std::vector<uint8_t> state(n, 0);
  uint32_t next = 0;
  struct Frame {
    Vertex v;
    uint32_t next_child;
  };
  std::vector<Frame> stack;
  for (Vertex root = 0; root < n; ++root) {
    if (state[root] != 0 || g.InDegree(root) != 0) continue;
    state[root] = 1;
    stack.push_back(Frame{root, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      auto nbrs = g.OutNeighbors(frame.v);
      if (frame.next_child < nbrs.size()) {
        const Vertex w = nbrs[frame.next_child++];
        if (state[w] == 0) {
          state[w] = 1;
          stack.push_back(Frame{w, 0});
        }
      } else {
        number[frame.v] = next++;
        state[frame.v] = 2;
        stack.pop_back();
      }
    }
  }
  // In a DAG every vertex hangs under some zero-in-degree root, but guard
  // against isolated leftovers anyway.
  for (Vertex v = 0; v < n; ++v) {
    if (state[v] == 0) number[v] = next++;
  }
  return number;
}

}  // namespace

Status IntervalOracle::BuildIndex(const Dag& dag) {
  Timer timer;
  const Digraph& g = dag.graph();
  const size_t n = g.num_vertices();
  number_ = DfsPostOrderNumbers(g);

  closure_.assign(n, IntervalSet());
  uint64_t stored = 0;
  size_t processed = 0;
  for (size_t i = n; i-- > 0;) {
    const Vertex v = dag.order()[i];
    IntervalSet& set = closure_[v];
    for (Vertex w : g.OutNeighbors(v)) {
      set.UnionWith(closure_[w]);
    }
    set.Insert(number_[v]);
    stored += set.interval_count();
    // Budget check every so often: interval closures can explode on graphs
    // with poor interval locality, which is exactly how INT fails on some
    // large graphs in the paper's Tables 5-7.
    if ((++processed & 0x3ff) == 0) {
      if (budget_.max_index_integers > 0 &&
          2 * stored > budget_.max_index_integers) {
        return Status::ResourceExhausted("INT interval count over budget");
      }
      if (budget_.max_seconds > 0 &&
          timer.ElapsedSeconds() > budget_.max_seconds) {
        return Status::ResourceExhausted("INT construction over time budget");
      }
    }
  }
  return Status::OK();
}

uint64_t IntervalOracle::TotalIntervals() const {
  uint64_t total = 0;
  for (const IntervalSet& set : closure_) total += set.interval_count();
  return total;
}

uint64_t IntervalOracle::IndexSizeIntegers() const {
  // Two integers per interval plus the per-vertex renumbering.
  return 2 * TotalIntervals() + number_.size();
}

uint64_t IntervalOracle::IndexSizeBytes() const {
  uint64_t bytes = number_.size() * sizeof(uint32_t);
  for (const IntervalSet& set : closure_) bytes += set.MemoryBytes();
  return bytes;
}

}  // namespace reach
