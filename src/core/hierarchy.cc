#include "core/hierarchy.h"

namespace reach {

StatusOr<Hierarchy> Hierarchy::Build(const Dag& dag,
                                     const HierarchyOptions& options) {
  const Digraph& g = dag.graph();
  Hierarchy h;
  h.epsilon_ = options.backbone.epsilon;
  h.level_of_.assign(g.num_vertices(), 0);

  std::vector<Vertex> all(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) all[v] = v;
  h.input_ = &g;
  h.level_vertices_.push_back(std::move(all));

  while (static_cast<int>(h.num_levels()) - 1 < options.max_levels) {
    const Digraph& current = h.LevelGraph(h.core_level());
    const std::vector<Vertex>& members = h.level_vertices_.back();
    if (members.size() <= options.core_size_threshold) break;

    auto backbone = ExtractBackbone(current, members, options.backbone);
    if (!backbone.ok()) return backbone.status();
    if (backbone->vertices.empty() ||
        backbone->vertices.size() >=
            static_cast<size_t>(options.min_shrink_factor * members.size())) {
      break;  // Not shrinking: keep the current level as the core.
    }
    for (Vertex v : backbone->vertices) h.level_of_[v] += 1;
    h.level_vertices_.push_back(std::move(backbone->vertices));
    h.backbones_.push_back(std::move(backbone->graph));
  }
  return h;
}

}  // namespace reach
