// PL: Pruned Landmark Labeling (Akiba, Iwata, Yoshida; SIGMOD 2013), the
// distance-labeling baseline of the paper's Section 6. Hops carry shortest
// distances; a pruned BFS per landmark (in rank order) adds (hop, dist)
// entries only where the existing labels cannot already certify an equal or
// shorter distance. A reachability query must evaluate the full distance
// merge (no early exit), which is exactly the extra cost the paper observes
// for PL in Tables 2/3.
//
// Storage follows the label lifecycle (core/label_store.h): the pruned
// BFS sweeps append into per-vertex vectors, then BuildIndex seals both
// sides into contiguous offsets[] + entries[] CSR arrays, so queries scan
// two flat spans and IndexSizeBytes() is exact.

#ifndef REACH_BASELINES_PRUNED_LANDMARK_H_
#define REACH_BASELINES_PRUNED_LANDMARK_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "graph/digraph.h"

namespace reach {

/// Directed pruned-landmark distance labeling used as a reachability oracle.
class PrunedLandmarkOracle : public ReachabilityOracle {
 protected:
  Status BuildIndex(const Dag& dag) override;

 public:

  bool Reachable(Vertex u, Vertex v) const override {
    return u == v || Distance(u, v) != kUnreachable;
  }

  /// Shortest-path distance (in hops) from u to v, kUnreachable if none.
  /// Distance(v, v) is 0.
  uint32_t Distance(Vertex u, Vertex v) const;

  static constexpr uint32_t kUnreachable = UINT32_MAX;

  std::string name() const override { return "PL"; }
  uint64_t IndexSizeIntegers() const override;
  uint64_t IndexSizeBytes() const override;

 private:
  struct Entry {
    uint32_t key;   // Landmark order position.
    uint32_t dist;  // Shortest distance between vertex and landmark.
  };

  using Rows = std::vector<std::vector<Entry>>;

  /// Shortest distance through a landmark both labels hold, kUnreachable
  /// if they share none.
  static uint32_t MergeDistance(std::span<const Entry> out,
                                std::span<const Entry> in);

  std::span<const Entry> OutLabel(Vertex u) const {
    return {out_entries_.data() + out_offsets_[u],
            static_cast<size_t>(out_offsets_[u + 1] - out_offsets_[u])};
  }
  std::span<const Entry> InLabel(Vertex v) const {
    return {in_entries_.data() + in_offsets_[v],
            static_cast<size_t>(in_offsets_[v + 1] - in_offsets_[v])};
  }

  /// Compacts the build-phase rows into the CSR arrays (exact
  /// allocations), freeing each side's rows once it is copied.
  void Seal(Rows* out, Rows* in);

  // Entries of vertex v occupy offsets[v] .. offsets[v + 1).
  std::vector<uint64_t> out_offsets_;  // Landmarks this vertex reaches.
  std::vector<uint64_t> in_offsets_;   // Landmarks reaching this vertex.
  std::vector<Entry> out_entries_;
  std::vector<Entry> in_entries_;
};

}  // namespace reach

#endif  // REACH_BASELINES_PRUNED_LANDMARK_H_
