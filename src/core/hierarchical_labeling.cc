#include "core/hierarchical_labeling.h"

#include <algorithm>
#include <atomic>

#include "core/backbone.h"
#include "core/distribution_labeling.h"
#include "graph/topology.h"
#include "util/sorted_ops.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace reach {

namespace {

/// Members per parallel task in the per-vertex labeling sweeps. Vertices of
/// one level are labeled independently (each reads only upper-level labels
/// and writes its own slots), so the chunks just need to amortize the
/// fork-join handshake over a few BFS runs.
constexpr size_t kLabelGrain = 16;

/// Worker slots a sweep over `work` items can actually use: ParallelChunks
/// never engages more participants than chunks, so per-worker O(n) scratch
/// (BoundedBfs mark arrays and the like) must not be sized by the raw
/// requested thread count — 128 threads x a 5M-vertex mark array for a
/// 40-item sweep would be a gigabyte of untouched zeroes.
size_t ScratchSlots(int threads, size_t work) {
  const size_t chunks = (work + kLabelGrain - 1) / kLabelGrain;
  return std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(std::max(threads, 1)), chunks));
}

// Formula 3: Lout(v) = N^{ceil(eps/2)}_out(v | Gh) (plus v itself), and
// symmetrically for Lin. Complete only if the core diameter is <= eps.
// Every member is labeled independently from the immutable core graph, so
// the sweep is embarrassingly parallel; per-worker BoundedBfs scratch keeps
// the traversals allocation-free.
void LabelCoreByNeighborhood(const Digraph& core,
                             const std::vector<Vertex>& members,
                             uint32_t half_eps, int threads,
                             LabelBuilder* labeling) {
  std::vector<BoundedBfs> bfs(ScratchSlots(threads, members.size()),
                              BoundedBfs(core.num_vertices()));
  ParallelChunks(0, members.size(), kLabelGrain, threads,
                 [&](const ChunkInfo& chunk) {
                   BoundedBfs& worker_bfs = bfs[chunk.worker];
                   for (size_t i = chunk.begin; i < chunk.end; ++i) {
                     const Vertex v = members[i];
                     std::vector<uint32_t>* out = labeling->MutableOut(v);
                     out->push_back(v);
                     worker_bfs.Run(
                         core, v, half_eps, /*forward=*/true,
                         [](Vertex) { return false; },
                         [out](Vertex w, uint32_t) { out->push_back(w); });
                     SortUnique(out);
                     std::vector<uint32_t>* in = labeling->MutableIn(v);
                     in->push_back(v);
                     worker_bfs.Run(
                         core, v, half_eps, /*forward=*/false,
                         [](Vertex) { return false; },
                         [in](Vertex w, uint32_t) { in->push_back(w); });
                     SortUnique(in);
                   }
                 });
}

// True if every reachable pair of core members lies within `eps` hops.
// Used to validate the kNeighborhood core labeler before trusting it.
bool CoreDiameterWithin(const Digraph& core,
                        const std::vector<Vertex>& members, uint32_t eps,
                        int threads) {
  // BFS from each member without depth bound; any vertex first reached
  // deeper than eps proves the diameter bound false. The per-member BFS
  // runs are read-only and independent — the sweep parallelizes over
  // members with per-worker dist/queue scratch, and the answer (a pure
  // AND over members) is the same for any schedule. Once one violation is
  // found the remaining chunks finish early via the shared flag.
  std::atomic<bool> exceeded{false};
  std::vector<std::vector<uint32_t>> dist(
      ScratchSlots(threads, members.size()),
      std::vector<uint32_t>(core.num_vertices()));
  ParallelChunks(0, members.size(), kLabelGrain, threads,
                 [&](const ChunkInfo& chunk) {
                   std::vector<uint32_t>& d = dist[chunk.worker];
                   std::vector<Vertex> queue;
                   for (size_t i = chunk.begin; i < chunk.end; ++i) {
                     if (exceeded.load(std::memory_order_relaxed)) return;
                     const Vertex s = members[i];
                     std::fill(d.begin(), d.end(), UINT32_MAX);
                     queue.assign(1, s);
                     d[s] = 0;
                     for (size_t head = 0; head < queue.size(); ++head) {
                       const Vertex v = queue[head];
                       for (Vertex w : core.OutNeighbors(v)) {
                         if (d[w] != UINT32_MAX) continue;
                         d[w] = d[v] + 1;
                         if (d[w] > eps) {
                           exceeded.store(true, std::memory_order_relaxed);
                           return;
                         }
                         queue.push_back(w);
                       }
                     }
                   }
                 });
  return !exceeded.load(std::memory_order_relaxed);
}

}  // namespace

Status HierarchicalLabelingOracle::BuildIndex(const Digraph& dag) {
  Timer timer;
  Timer phase;
  const int threads = build_threads();
  auto hierarchy = Hierarchy::Build(dag, options_.hierarchy);
  if (!hierarchy.ok()) return hierarchy.status();
  hierarchy_ = std::make_unique<Hierarchy>(std::move(hierarchy.value()));
  build_stats_.order_millis = phase.ElapsedMillis();
  phase.Reset();

  const size_t n = dag.num_vertices();
  const int eps = hierarchy_->epsilon();
  const uint32_t half_eps = static_cast<uint32_t>((eps + 1) / 2);
  LabelBuilder builder(n);

  // --- Step 1: label the core graph Gh. ---
  const size_t core = hierarchy_->core_level();
  const Digraph& core_graph = hierarchy_->LevelGraph(core);
  const std::vector<Vertex>& core_members = hierarchy_->LevelVertices(core);
  bool use_neighborhood = options_.core_labeler == CoreLabeler::kNeighborhood;
  if (use_neighborhood &&
      !CoreDiameterWithin(core_graph, core_members,
                          static_cast<uint32_t>(eps), threads)) {
    use_neighborhood = false;  // Formula 3 would be incomplete; fall back.
  }
  if (use_neighborhood) {
    LabelCoreByNeighborhood(core_graph, core_members, half_eps, threads,
                            &builder);
  } else {
    // Distribution Labeling restricted to the core, with vertex-id keys so
    // that core labels compose with the level labels below.
    DistributionOptions dl_options;
    DistributionOrder applied = dl_options.order;
    std::vector<Vertex> order = ComputeDistributionOrder(
        core_graph, core_members, dl_options, threads, &applied);
    build_stats_.order = DistributionOrderName(applied);
    std::vector<uint32_t> key_of(n);
    for (Vertex v = 0; v < n; ++v) key_of[v] = v;
    DistributeLabels(core_graph, order, key_of, &builder, threads,
                     &build_stats_);
  }

  // --- Step 2: label levels h-1 .. 0 (Algorithm 1, Lines 4-10). ---
  // Levels must be processed top-down (a vertex's label unions the labels
  // of upper-level vertices), but within one level every vertex is
  // independent: it reads only strictly-higher-level labels — complete and
  // immutable by now — and writes its own Lout/Lin slots. The per-level
  // sweep therefore fans out across workers, each with private BFS/gather
  // scratch, and the result is byte-identical for any thread count.
  // Per-worker scratch grows to the widest sweep actually run (never past
  // what any level's chunk count can engage).
  std::vector<BoundedBfs> bfs;
  std::vector<std::vector<uint32_t>> gathers;
  std::vector<Vertex> todo;
  for (size_t i = core; i-- > 0;) {
    if (budget_.max_seconds > 0 &&
        timer.ElapsedSeconds() > budget_.max_seconds) {
      return Status::ResourceExhausted("HL construction exceeded time budget");
    }
    const Digraph& gi = hierarchy_->LevelGraph(i);
    todo.clear();
    for (Vertex v : hierarchy_->LevelVertices(i)) {
      if (hierarchy_->LevelOf(v) == i) todo.push_back(v);
    }
    const size_t slots = ScratchSlots(threads, todo.size());
    while (bfs.size() < slots) bfs.emplace_back(n);
    if (gathers.size() < slots) gathers.resize(slots);
    ParallelChunks(
        0, todo.size(), kLabelGrain, threads, [&](const ChunkInfo& chunk) {
          BoundedBfs& worker_bfs = bfs[chunk.worker];
          std::vector<uint32_t>& gather = gathers[chunk.worker];
          for (size_t t = chunk.begin; t < chunk.end; ++t) {
            const Vertex v = todo[t];

            // Lout(v) = {v} ∪ N^{half_eps}_out(v|Gi) ∪ labels of
            // B^eps_out(v|Gi).
            gather.clear();
            gather.push_back(v);
            worker_bfs.Run(
                gi, v, half_eps, /*forward=*/true,
                [](Vertex) { return false; },
                [&gather](Vertex w, uint32_t) { gather.push_back(w); });
            worker_bfs.Run(
                gi, v, static_cast<uint32_t>(eps), /*forward=*/true,
                [this, i](Vertex w) { return hierarchy_->LevelOf(w) > i; },
                [this, i, &builder, &gather](Vertex w, uint32_t) {
                  if (hierarchy_->LevelOf(w) > i) {
                    const auto upper = builder.Out(w);
                    gather.insert(gather.end(), upper.begin(), upper.end());
                  }
                });
            SortUnique(&gather);
            *builder.MutableOut(v) = gather;

            // Lin(v), symmetrically.
            gather.clear();
            gather.push_back(v);
            worker_bfs.Run(
                gi, v, half_eps, /*forward=*/false,
                [](Vertex) { return false; },
                [&gather](Vertex w, uint32_t) { gather.push_back(w); });
            worker_bfs.Run(
                gi, v, static_cast<uint32_t>(eps), /*forward=*/false,
                [this, i](Vertex w) { return hierarchy_->LevelOf(w) > i; },
                [this, i, &builder, &gather](Vertex w, uint32_t) {
                  if (hierarchy_->LevelOf(w) > i) {
                    const auto upper = builder.In(w);
                    gather.insert(gather.end(), upper.begin(), upper.end());
                  }
                });
            SortUnique(&gather);
            *builder.MutableIn(v) = gather;
          }
        });
  }

  build_stats_.label_millis = phase.ElapsedMillis();
  if (budget_.max_index_integers > 0 &&
      builder.TotalEntries() > budget_.max_index_integers) {
    return Status::ResourceExhausted("HL index exceeded size budget");
  }
  phase.Reset();
  labeling_ = std::move(builder).Seal(threads);
  build_stats_.seal_millis = phase.ElapsedMillis();
  return Status::OK();
}

Status HierarchicalLabelingOracle::LoadIndexMapped(const Digraph& dag,
                                                   MappedRegion region) {
  StatusOr<LabelStore> mapped = MapLabelStoreFor(dag, std::move(region), "HL");
  if (!mapped.ok()) return mapped.status();
  labeling_ = std::move(*mapped);
  hierarchy_.reset();  // Construction metadata; not part of the snapshot.
  return Status::OK();
}

}  // namespace reach
