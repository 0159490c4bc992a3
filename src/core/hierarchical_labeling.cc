#include "core/hierarchical_labeling.h"

#include <algorithm>

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
