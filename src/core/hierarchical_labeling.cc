#include "core/hierarchical_labeling.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "core/backbone.h"
#include "core/distribution_labeling.h"
#include "graph/topology.h"
#include "util/sorted_ops.h"
#include "util/timer.h"

namespace reach {

Status HierarchicalLabelingOracle::BuildIndex(const Dag& dag) {
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
  LabelBuilder builder(n, static_cast<size_t>(threads));

  // --- Step 1: label the core graph Gh. ---
  const size_t core = hierarchy_->core_level();
  const Digraph& core_graph = hierarchy_->LevelGraph(core);
  const std::vector<Vertex>& core_members = hierarchy_->LevelVertices(core);
  // An unshrunk core is the input graph, whose Dag still holds; a
  // backbone is a different graph, so it gets its own proof.
  std::optional<Dag> shrunk_core;
  if (core > 0) {
    StatusOr<Dag> checked = Dag::Check(core_graph);
    if (!checked.ok()) return checked.status();
    shrunk_core.emplace(std::move(*checked));
  }
  const Dag& core_dag = shrunk_core ? *shrunk_core : dag;
  // Distribution Labeling restricted to the core, with vertex-id keys so
  // that core labels compose with the level labels below.
  DistributionOptions dl_options;
  DistributionOrder applied = dl_options.order;
  std::vector<Vertex> order = ComputeDistributionOrder(
      core_dag, core_members, dl_options, threads, &applied);
  build_stats_.order = DistributionOrderName(applied);
  std::vector<uint32_t> key_of(n);
  for (Vertex v = 0; v < n; ++v) key_of[v] = v;
  DistributeLabels(core_graph, order, key_of, &builder, &build_stats_);

  // --- Step 2: label levels h-1 .. 0 (Algorithm 1, Lines 4-10). ---
  // Levels must be processed top-down (a vertex's label unions the labels
  // of upper-level vertices), but within one level every vertex is
  // independent: it reads only strictly-higher-level labels — complete and
  // immutable by now — and writes its own Lout/Lin rows. The per-level
  // sweep therefore fans out over the builder's row partitions, one task
  // per partition with private BFS/gather scratch, and the result is
  // byte-identical for any thread count. A worker's scratch is made the
  // first time that worker runs.
  std::vector<std::unique_ptr<BoundedBfs>> bfs(builder.parts());
  std::vector<std::vector<uint32_t>> gathers(builder.parts());
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
    builder.ForEachRowByPart(todo, [&](Vertex v, size_t worker) {
      if (bfs[worker] == nullptr) bfs[worker] = std::make_unique<BoundedBfs>(n);
      BoundedBfs& worker_bfs = *bfs[worker];
      std::vector<uint32_t>& gather = gathers[worker];

      // Lout(v) = {v} ∪ N^{half_eps}_out(v|Gi) ∪ labels of B^eps_out(v|Gi).
      gather.clear();
      gather.push_back(v);
      worker_bfs.Run(
          gi, v, half_eps, /*forward=*/true, [](Vertex) { return false; },
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
      builder.AssignOut(v, gather);

      // Lin(v), symmetrically.
      gather.clear();
      gather.push_back(v);
      worker_bfs.Run(
          gi, v, half_eps, /*forward=*/false, [](Vertex) { return false; },
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
      builder.AssignIn(v, gather);
    });
  }

  // Every row is built: queries read only the labels, and callers of
  // hierarchy() only the level sets.
  hierarchy_->ReleaseLevelGraphs();
  build_stats_.label_millis = phase.ElapsedMillis();
  if (budget_.max_index_integers > 0 &&
      builder.TotalEntries() > budget_.max_index_integers) {
    return Status::ResourceExhausted("HL index exceeded size budget");
  }
  SealLabels(std::move(builder));
  return Status::OK();
}

}  // namespace reach
