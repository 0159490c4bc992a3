#include "datasets/registry.h"

#include <algorithm>
#include <cmath>

namespace reach {

const std::vector<DatasetSpec>& SmallDatasets() {
  static const std::vector<DatasetSpec> kSpecs = {
      {"agrocyc", false, 12684, 13408, GraphFamily::kTreeLike, 1.0, 101},
      {"amaze", false, 3710, 3600, GraphFamily::kHub, 1.0, 102},
      {"anthra", false, 12499, 13104, GraphFamily::kTreeLike, 1.0, 103},
      {"arxiv", false, 21608, 116805, GraphFamily::kCitation, 1.0, 104},
      {"ecoo", false, 12620, 13350, GraphFamily::kTreeLike, 1.0, 105},
      {"hpycyc", false, 4771, 5859, GraphFamily::kTreeLike, 1.0, 106},
      {"human", false, 38811, 39576, GraphFamily::kTreeLike, 1.0, 107},
      {"kegg", false, 3617, 3908, GraphFamily::kHub, 1.0, 108},
      {"mtbrv", false, 9602, 10245, GraphFamily::kTreeLike, 1.0, 109},
      {"nasa", false, 5605, 7735, GraphFamily::kLayered, 1.0, 110},
      {"p2p", false, 48438, 55349, GraphFamily::kSparseRandom, 1.0, 111},
      {"reactome", false, 901, 846, GraphFamily::kTreeLike, 1.0, 112},
      {"vchocyc", false, 9491, 10143, GraphFamily::kTreeLike, 1.0, 113},
      {"xmark", false, 6080, 7028, GraphFamily::kLayered, 1.0, 114},
  };
  return kSpecs;
}

const std::vector<DatasetSpec>& LargeDatasets() {
  static const std::vector<DatasetSpec> kSpecs = {
      {"citeseer", true, 693947, 312282, GraphFamily::kTreeLike, 0.08, 201},
      {"citeseerx", true, 6540399, 15011259, GraphFamily::kCitation, 0.008,
       202},
      {"cit-Patents", true, 3774768, 16518947, GraphFamily::kCitation, 0.01,
       203},
      {"email", true, 231000, 223004, GraphFamily::kSparseRandom, 0.12, 204},
      {"go_uniprot", true, 6967956, 34770235, GraphFamily::kLayered, 0.005,
       205},
      {"lj", true, 971232, 1024140, GraphFamily::kSparseRandom, 0.05, 206},
      {"mapped_100K", true, 2658702, 2660628, GraphFamily::kTreeLike, 0.015,
       207},
      {"mapped_1M", true, 9387448, 9440404, GraphFamily::kTreeLike, 0.005, 208},
      {"uniprotenc_100m", true, 16087295, 16087293, GraphFamily::kStarForest,
       0.003, 209},
      {"uniprotenc_150m", true, 25037600, 25037598, GraphFamily::kStarForest,
       0.002, 210},
      {"uniprotenc_22m", true, 1595444, 1595442, GraphFamily::kStarForest,
       0.025, 211},
      {"web", true, 371764, 517805, GraphFamily::kSparseRandom, 0.08, 212},
      {"wiki", true, 2281879, 2311570, GraphFamily::kSparseRandom, 0.02, 213},
  };
  return kSpecs;
}

StatusOr<DatasetSpec> FindDataset(const std::string& name) {
  for (const std::vector<DatasetSpec>* tier :
       {&SmallDatasets(), &LargeDatasets()}) {
    for (const DatasetSpec& spec : *tier) {
      if (spec.name == name) return spec;
    }
  }
  return Status::NotFound("no dataset named '" + name + "'");
}

Digraph MakeDataset(const DatasetSpec& spec) {
  const size_t n = std::max<size_t>(spec.target_vertices(), 2);
  const size_t m = spec.target_edges();
  switch (spec.family) {
    case GraphFamily::kTreeLike: {
      // Match |E|/|V|: when edges are scarcer than a spanning forest, raise
      // the root fraction; otherwise add cross edges on top of the forest.
      const double ratio = static_cast<double>(m) / static_cast<double>(n);
      if (ratio < 0.98) {
        return TreeLikeDag(n, 0, spec.seed, /*root_fraction=*/1.0 - ratio);
      }
      const size_t tree_edges = static_cast<size_t>(0.98 * n);
      return TreeLikeDag(n, m > tree_edges ? m - tree_edges : 0, spec.seed,
                         /*root_fraction=*/0.02);
    }
    case GraphFamily::kCitation:
      return CitationDag(n, static_cast<double>(m) / n, spec.seed);
    case GraphFamily::kLayered: {
      const size_t layers = std::max<size_t>(
          6, static_cast<size_t>(std::sqrt(static_cast<double>(n)) / 2));
      return LayeredDag(n, layers, static_cast<double>(m) / n, spec.seed);
    }
    case GraphFamily::kSparseRandom:
      return RandomDag(n, m, spec.seed);
    case GraphFamily::kHub:
      return HubDag(n, std::max<size_t>(2, n / 50), m, spec.seed);
    case GraphFamily::kStarForest:
      return StarForestDag(n, spec.seed);
    default:
      return GenerateFamily(spec.family, n, m, spec.seed);
  }
}

}  // namespace reach
