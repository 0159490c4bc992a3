#include "baselines/scarab.h"

#include <algorithm>

namespace reach {

Status ScarabOracle::BuildIndex(const Dag& dag) {
  graph_ = dag.graph();
  const size_t n = dag.num_vertices();

  std::vector<Vertex> members(n);
  for (Vertex v = 0; v < n; ++v) members[v] = v;
  auto backbone = ExtractBackbone(dag.graph(), members, backbone_options_);
  if (!backbone.ok()) return backbone.status();
  is_backbone_ = std::move(backbone->is_backbone);
  backbone_vertices_ = std::move(backbone->vertices);

  // Compact the backbone graph so the inner index sizes with |V*|, not |V|.
  compact_id_.assign(n, UINT32_MAX);
  for (uint32_t i = 0; i < backbone_vertices_.size(); ++i) {
    compact_id_[backbone_vertices_[i]] = i;
  }
  std::vector<Edge> compact_edges;
  for (Vertex v : backbone_vertices_) {
    for (Vertex w : backbone->graph.OutNeighbors(v)) {
      compact_edges.push_back(Edge{compact_id_[v], compact_id_[w]});
    }
  }
  Digraph compact = Digraph::FromEdges(backbone_vertices_.size(),
                                       std::move(compact_edges));

  inner_ = inner_factory_();
  if (inner_ == nullptr) {
    return Status::InvalidArgument("SCARAB inner factory returned null");
  }
  inner_->set_budget(budget_);
  REACH_RETURN_IF_ERROR(inner_->Build(compact));

  mark_.assign(n, 0);
  epoch_ = 0;
  return Status::OK();
}

bool ScarabOracle::Reachable(Vertex u, Vertex v) const {
  if (u == v) return true;
  const uint32_t eps = static_cast<uint32_t>(backbone_options_.epsilon);

  // Forward epsilon-bounded BFS from u: local hit test + entry collection.
  ++epoch_;
  queue_.clear();
  depth_.clear();
  entries_.clear();
  queue_.push_back(u);
  depth_.push_back(0);
  mark_[u] = epoch_;
  if (is_backbone_[u]) entries_.push_back(compact_id_[u]);
  for (size_t head = 0; head < queue_.size(); ++head) {
    const Vertex x = queue_[head];
    const uint32_t d = depth_[head];
    if (d >= eps) continue;
    for (Vertex w : graph_.OutNeighbors(x)) {
      if (w == v) return true;  // Local pair.
      if (mark_[w] == epoch_) continue;
      mark_[w] = epoch_;
      if (is_backbone_[w]) entries_.push_back(compact_id_[w]);
      queue_.push_back(w);
      depth_.push_back(d + 1);
    }
  }
  if (entries_.empty()) return false;

  // Backward epsilon-bounded BFS from v: exit collection.
  ++epoch_;
  queue_.clear();
  depth_.clear();
  exits_.clear();
  queue_.push_back(v);
  depth_.push_back(0);
  mark_[v] = epoch_;
  if (is_backbone_[v]) exits_.push_back(compact_id_[v]);
  for (size_t head = 0; head < queue_.size(); ++head) {
    const Vertex x = queue_[head];
    const uint32_t d = depth_[head];
    if (d >= eps) continue;
    for (Vertex w : graph_.InNeighbors(x)) {
      if (mark_[w] == epoch_) continue;
      mark_[w] = epoch_;
      if (is_backbone_[w]) exits_.push_back(compact_id_[w]);
      queue_.push_back(w);
      depth_.push_back(d + 1);
    }
  }
  for (uint32_t entry : entries_) {
    for (uint32_t exit : exits_) {
      if (inner_->Reachable(entry, exit)) return true;
    }
  }
  return false;
}

uint64_t ScarabOracle::IndexSizeIntegers() const {
  // Inner index plus the backbone bookkeeping (membership + id maps).
  return inner_->IndexSizeIntegers() + backbone_vertices_.size() +
         compact_id_.size();
}

uint64_t ScarabOracle::IndexSizeBytes() const {
  return inner_->IndexSizeBytes() +
         backbone_vertices_.size() * sizeof(Vertex) +
         compact_id_.size() * sizeof(uint32_t) + is_backbone_.size() / 8;
}

}  // namespace reach
