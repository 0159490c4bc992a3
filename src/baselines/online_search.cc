#include "baselines/online_search.h"

namespace reach {

Status OnlineSearchOracle::BuildIndex(const Dag& dag) {
  graph_ = dag.graph();
  fwd_mark_.assign(dag.num_vertices(), 0);
  bwd_mark_.assign(dag.num_vertices(), 0);
  epoch_ = 0;
  return Status::OK();
}

bool OnlineSearchOracle::Reachable(Vertex u, Vertex v) const {
  if (u == v) return true;
  switch (kind_) {
    case SearchKind::kBfs:
      return BfsQuery(u, v);
    case SearchKind::kDfs:
      return DfsQuery(u, v);
    case SearchKind::kBidirectionalBfs:
      return BidirectionalQuery(u, v);
  }
  return false;
}

bool OnlineSearchOracle::BfsQuery(Vertex u, Vertex v) const {
  ++epoch_;
  fwd_queue_.clear();
  fwd_queue_.push_back(u);
  fwd_mark_[u] = epoch_;
  for (size_t head = 0; head < fwd_queue_.size(); ++head) {
    for (Vertex w : graph_.OutNeighbors(fwd_queue_[head])) {
      if (w == v) return true;
      if (fwd_mark_[w] != epoch_) {
        fwd_mark_[w] = epoch_;
        fwd_queue_.push_back(w);
      }
    }
  }
  return false;
}

bool OnlineSearchOracle::DfsQuery(Vertex u, Vertex v) const {
  ++epoch_;
  fwd_queue_.clear();
  fwd_queue_.push_back(u);
  fwd_mark_[u] = epoch_;
  while (!fwd_queue_.empty()) {
    const Vertex x = fwd_queue_.back();
    fwd_queue_.pop_back();
    for (Vertex w : graph_.OutNeighbors(x)) {
      if (w == v) return true;
      if (fwd_mark_[w] != epoch_) {
        fwd_mark_[w] = epoch_;
        fwd_queue_.push_back(w);
      }
    }
  }
  return false;
}

bool OnlineSearchOracle::BidirectionalQuery(Vertex u, Vertex v) const {
  ++epoch_;
  fwd_queue_.clear();
  bwd_queue_.clear();
  fwd_queue_.push_back(u);
  bwd_queue_.push_back(v);
  fwd_mark_[u] = epoch_;
  bwd_mark_[v] = epoch_;
  size_t fwd_head = 0;
  size_t bwd_head = 0;
  // Alternate expanding the smaller frontier; meet-in-the-middle.
  while (fwd_head < fwd_queue_.size() || bwd_head < bwd_queue_.size()) {
    const bool expand_fwd =
        bwd_head >= bwd_queue_.size() ||
        (fwd_head < fwd_queue_.size() &&
         fwd_queue_.size() - fwd_head <= bwd_queue_.size() - bwd_head);
    if (expand_fwd) {
      const Vertex x = fwd_queue_[fwd_head++];
      for (Vertex w : graph_.OutNeighbors(x)) {
        if (bwd_mark_[w] == epoch_) return true;
        if (fwd_mark_[w] != epoch_) {
          fwd_mark_[w] = epoch_;
          fwd_queue_.push_back(w);
        }
      }
    } else {
      const Vertex x = bwd_queue_[bwd_head++];
      for (Vertex w : graph_.InNeighbors(x)) {
        if (fwd_mark_[w] == epoch_) return true;
        if (bwd_mark_[w] != epoch_) {
          bwd_mark_[w] = epoch_;
          bwd_queue_.push_back(w);
        }
      }
    }
  }
  return false;
}

}  // namespace reach
