#include "core/labeling_oracle.h"

#include <string>
#include <utility>

#include "util/timer.h"

namespace reach {

void LabelingOracle::ReachableMany(std::span<const VertexPair> pairs,
                                   std::span<uint8_t> answers) const {
  labeling_.QueryMany(pairs, answers);
  // Reachable is reflexive, while a vertex's own two labels need not
  // share a hop.
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].u == pairs[i].v) answers[i] = 1;
  }
}

Status LabelingOracle::LoadIndexMapped(size_t num_vertices,
                                       MappedRegion region) {
  StatusOr<LabelStore> mapped = LabelStore::FromMapped(std::move(region));
  if (!mapped.ok()) return mapped.status();
  if (mapped->num_vertices() != num_vertices) {
    return Status::Corruption(name() + " snapshot covers " +
                              std::to_string(mapped->num_vertices()) +
                              " vertices, graph has " +
                              std::to_string(num_vertices));
  }
  labeling_ = std::move(*mapped);
  return Status::OK();
}

void LabelingOracle::SealLabels(LabelBuilder&& builder) {
  build_stats_.label_storage_bytes = builder.StorageBytes();
  Timer phase;
  labeling_ = std::move(builder).Seal(build_threads());
  build_stats_.seal_millis = phase.ElapsedMillis();
}

}  // namespace reach
