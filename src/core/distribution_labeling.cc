#include "core/distribution_labeling.h"

#include <algorithm>
#include <cassert>

#include "core/backbone.h"
#include "graph/level_bfs.h"
#include "graph/topology.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace reach {

std::string DistributionOrderName(DistributionOrder order) {
  switch (order) {
    case DistributionOrder::kDegreeProduct:
      return "degree_product";
    case DistributionOrder::kRandom:
      return "random";
    case DistributionOrder::kTopological:
      return "topological";
    case DistributionOrder::kReverseDegreeProduct:
      return "reverse_degree_product";
  }
  return "unknown";
}

std::vector<Vertex> ComputeDistributionOrder(
    const Digraph& g, const std::vector<Vertex>& members,
    const DistributionOptions& options, int threads) {
  std::vector<Vertex> order = members;
  switch (options.order) {
    case DistributionOrder::kDegreeProduct:
    case DistributionOrder::kReverseDegreeProduct: {
      std::vector<uint64_t> rank(g.num_vertices(), 0);
      ParallelFor(0, members.size(), 4096, threads, [&](size_t i) {
        rank[members[i]] = DegreeProductRank(g, members[i]);
      });
      const bool descending =
          options.order == DistributionOrder::kDegreeProduct;
      std::sort(order.begin(), order.end(),
                [&rank, descending](Vertex a, Vertex b) {
                  if (rank[a] != rank[b]) {
                    return descending ? rank[a] > rank[b] : rank[a] < rank[b];
                  }
                  return a < b;
                });
      break;
    }
    case DistributionOrder::kRandom: {
      Rng rng(options.seed);
      Shuffle(&order, &rng);
      break;
    }
    case DistributionOrder::kTopological: {
      auto topo = TopologicalOrder(g);
      assert(topo.has_value());
      std::vector<bool> is_member(g.num_vertices(), false);
      for (Vertex v : members) is_member[v] = true;
      order.clear();
      for (Vertex v : *topo) {
        if (is_member[v]) order.push_back(v);
      }
      break;
    }
  }
  return order;
}

void DistributeLabels(const Digraph& g, const std::vector<Vertex>& order,
                      const std::vector<uint32_t>& key_of,
                      LabelStore* labeling, int threads) {
  const size_t n = g.num_vertices();
  std::vector<uint32_t> mark(n, 0);
  uint32_t epoch = 0;
  LevelBfsScratch scratch;

  // The outer hop loop is inherently sequential (each hop's pruning depends
  // on all earlier hops' labels); parallelism lives inside each traversal,
  // where the level-synchronous BFS evaluates the pruning intersections of
  // one frontier concurrently and merges deterministically (level_bfs.h).
  for (const Vertex hop : order) {
    const uint32_t key = key_of[hop];
    // --- Reverse BFS: add `hop` to Lout of TC^-1(hop) \ TC^-1(X). ---
    // A visited u is pruned when Lout(u) already intersects Lin(hop): some
    // higher-order hop certifies u -> hop, so u (and everything above it)
    // is already covered (Algorithm 2, Lines 4-5). The source is admitted
    // unpruned: in a DAG Lout(hop) and Lin(hop) cannot intersect yet (that
    // would certify a cycle through a higher-order hop).
    ++epoch;
    RunPrunedLevelBfs(
        g, hop, /*forward=*/false, threads, &mark, epoch,
        [&](Vertex u, uint32_t) {
          return SortedIntersects(labeling->Out(u), labeling->In(hop));
        },
        [&](Vertex u, uint32_t) { labeling->InsertOut(u, key); }, &scratch);
    // --- Forward BFS: add `hop` to Lin of TC(hop) \ TC(Y). ---
    ++epoch;
    RunPrunedLevelBfs(
        g, hop, /*forward=*/true, threads, &mark, epoch,
        [&](Vertex w, uint32_t) {
          return SortedIntersects(labeling->In(w), labeling->Out(hop));
        },
        [&](Vertex w, uint32_t) { labeling->InsertIn(w, key); }, &scratch);
  }
}

Status DistributionLabelingOracle::BuildIndex(const Digraph& dag) {
  if (!IsDag(dag)) {
    return Status::InvalidArgument("DistributionLabeling requires a DAG");
  }
  Timer timer;
  const size_t n = dag.num_vertices();
  std::vector<Vertex> members(n);
  for (Vertex v = 0; v < n; ++v) members[v] = v;
  order_ = ComputeDistributionOrder(dag, members, options_, build_threads());

  // Hop keys are order positions: appends during distribution are then
  // naturally ascending, and label vectors stay sorted with O(1) inserts.
  std::vector<uint32_t> key_of(n, 0);
  for (uint32_t i = 0; i < order_.size(); ++i) key_of[order_[i]] = i;

  labeling_.Init(n);
  DistributeLabels(dag, order_, key_of, &labeling_, build_threads());
  // Construction is done mutating: compact to the flat query layout.
  labeling_.Seal();

  if (budget_.max_seconds > 0 && timer.ElapsedSeconds() > budget_.max_seconds) {
    return Status::ResourceExhausted("DL construction exceeded time budget");
  }
  if (budget_.max_index_integers > 0 &&
      labeling_.TotalEntries() > budget_.max_index_integers) {
    return Status::ResourceExhausted("DL index exceeded size budget");
  }
  return Status::OK();
}

Status DistributionLabelingOracle::LoadIndexMapped(const Digraph& dag,
                                                   MappedRegion region) {
  StatusOr<LabelStore> mapped = MapLabelStoreFor(dag, std::move(region), "DL");
  if (!mapped.ok()) return mapped.status();
  labeling_ = std::move(*mapped);
  order_.clear();  // Construction metadata; not part of the snapshot.
  return Status::OK();
}

}  // namespace reach
