#include "core/dynamic_labeling.h"

#include <algorithm>

#include "graph/topology.h"

namespace reach {

Status DynamicDistributionLabeling::BuildIndex(const Digraph& dag) {
  if (!IsDag(dag)) {
    return Status::InvalidArgument("DynamicDistributionLabeling needs a DAG");
  }
  base_ = dag;
  inserted_.clear();
  extra_out_.assign(dag.num_vertices(), {});
  extra_in_.assign(dag.num_vertices(), {});
  mark_.assign(dag.num_vertices(), 0);
  epoch_ = 0;

  const size_t n = dag.num_vertices();
  std::vector<Vertex> members(n);
  for (Vertex v = 0; v < n; ++v) members[v] = v;
  DistributionOrder applied = options_.order;
  order_ = ComputeDistributionOrder(dag, members, options_, build_threads(),
                                    &applied);
  build_stats_.order = DistributionOrderName(applied);
  key_of_.assign(n, 0);
  for (uint32_t i = 0; i < order_.size(); ++i) key_of_[order_[i]] = i;
  labeling_.Init(n);
  DistributeLabels(dag, order_, key_of_, &labeling_, build_threads());
  // Sealed for serving; InsertEdge unseals on the first patch (and a
  // Rebuild re-seals).
  labeling_.Seal();
  return Status::OK();
}

Status DynamicDistributionLabeling::LoadIndexMapped(const Digraph& dag,
                                                    MappedRegion region) {
  StatusOr<LabelStore> mapped =
      MapLabelStoreFor(dag, std::move(region), "DL+dyn");
  if (!mapped.ok()) return mapped.status();
  labeling_ = std::move(*mapped);
  ResetOverlay(dag);
  return Status::OK();
}

void DynamicDistributionLabeling::ResetOverlay(const Digraph& dag) {
  // Dynamic-overlay state starts fresh over the loaded base graph; the
  // key/order tables are construction metadata a patch never reads.
  base_ = dag;
  inserted_.clear();
  extra_out_.assign(dag.num_vertices(), {});
  extra_in_.assign(dag.num_vertices(), {});
  mark_.assign(dag.num_vertices(), 0);
  epoch_ = 0;
  order_.clear();
  key_of_.clear();
}

std::vector<Vertex> DynamicDistributionLabeling::OutNeighbors(Vertex v) const {
  auto base = base_.OutNeighbors(v);
  std::vector<Vertex> out(base.begin(), base.end());
  out.insert(out.end(), extra_out_[v].begin(), extra_out_[v].end());
  return out;
}

std::vector<Vertex> DynamicDistributionLabeling::InNeighbors(Vertex v) const {
  auto base = base_.InNeighbors(v);
  std::vector<Vertex> in(base.begin(), base.end());
  in.insert(in.end(), extra_in_[v].begin(), extra_in_[v].end());
  return in;
}

Status DynamicDistributionLabeling::InsertEdge(Vertex u, Vertex v) {
  const size_t n = base_.num_vertices();
  if (u >= n || v >= n) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (u == v) {
    return Status::InvalidArgument("self-loops are not representable");
  }
  if (Reachable(v, u)) {
    return Status::InvalidArgument("edge (" + std::to_string(u) + "," +
                                   std::to_string(v) +
                                   ") would create a cycle");
  }
  if (Reachable(u, v)) {
    // Already covered: record the edge, labels need no patch.
    inserted_.push_back(Edge{u, v});
    extra_out_[u].push_back(v);
    extra_in_[v].push_back(u);
    return Status::OK();
  }
  inserted_.push_back(Edge{u, v});
  extra_out_[u].push_back(v);
  extra_in_[v].push_back(u);

  // New pairs are exactly TC^-1(u) x TC(v). For any new pair (a, b), the
  // pre-insert completeness of (v, b) provides a hop h in Lout(v) ∩ Lin(b);
  // pushing h's key into Lout of every new ancestor of u re-covers the pair
  // through the untouched Lin side. Pruning rule: stop at any vertex that
  // already carried the key BEFORE this insertion — such a vertex reached h
  // in the old graph, so pairs through it were old and already covered.
  // (Keys are distinct per BFS, so "carried before this BFS" == "carried
  // before this insertion"; no same-patch contamination.)
  labeling_.Unseal();  // Back to the mutable phase for the patch sweeps.
  const std::span<const uint32_t> keys_span = labeling_.Out(v);
  const std::vector<uint32_t> keys(keys_span.begin(), keys_span.end());
  std::vector<Vertex> queue;
  for (uint32_t key : keys) {
    if (SortedContains(labeling_.Out(u), key)) {
      continue;  // u -> hop existed before: all pairs via this hop are old.
    }
    ++epoch_;
    queue.clear();
    queue.push_back(u);
    mark_[u] = epoch_;
    labeling_.InsertOut(u, key);
    for (size_t head = 0; head < queue.size(); ++head) {
      const Vertex x = queue[head];
      for (Vertex a : InNeighbors(x)) {
        if (mark_[a] == epoch_) continue;
        mark_[a] = epoch_;
        if (!SortedContains(labeling_.Out(a), key)) {
          labeling_.InsertOut(a, key);
          queue.push_back(a);
        }
      }
    }
  }
  return Status::OK();
}

Status DynamicDistributionLabeling::Rebuild() {
  std::vector<Edge> edges = base_.CollectEdges();
  edges.insert(edges.end(), inserted_.begin(), inserted_.end());
  Digraph merged = Digraph::FromEdges(base_.num_vertices(), std::move(edges));
  return Build(merged);
}

}  // namespace reach
