// Dataset registry mirroring the paper's Table 1. Each of the 14 small and
// 13 large benchmark graphs is represented by a deterministic synthetic
// generator from the matching structural family (DESIGN.md Section 3.1).
// Small graphs are generated at the paper's original |V|/|E|; large graphs
// are scaled down by a per-dataset factor so the full table suite runs on a
// laptop, with the paper's original sizes retained for reporting.

#ifndef REACH_DATASETS_REGISTRY_H_
#define REACH_DATASETS_REGISTRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "graph/generators.h"
#include "util/status.h"

namespace reach {

/// One Table-1 dataset stand-in.
struct DatasetSpec {
  std::string name;       // Paper dataset name.
  bool large;             // Table 1 left (small) vs right (large) column.
  size_t paper_vertices;  // |V| reported in Table 1.
  size_t paper_edges;     // |E| reported in Table 1.
  GraphFamily family;     // Structural family of the stand-in.
  double scale;           // Our size = paper size * scale.
  uint64_t seed;

  size_t target_vertices() const {
    return static_cast<size_t>(paper_vertices * scale);
  }
  size_t target_edges() const {
    return static_cast<size_t>(paper_edges * scale);
  }
};

/// The 14 small datasets (original scale).
const std::vector<DatasetSpec>& SmallDatasets();

/// The 13 large datasets (scaled; see DatasetSpec::scale).
const std::vector<DatasetSpec>& LargeDatasets();

/// Lookup by name across both lists.
StatusOr<DatasetSpec> FindDataset(const std::string& name);

/// Instantiates the synthetic graph for a spec (deterministic).
Digraph MakeDataset(const DatasetSpec& spec);

}  // namespace reach

#endif  // REACH_DATASETS_REGISTRY_H_
