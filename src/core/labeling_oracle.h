// The 2-hop labeling oracles' shared core. DL, HL/TF and the set-cover
// 2HOP baseline are all 2-hop labelings: u reaches v iff Lout(u) and
// Lin(v) share a hop. Each keeps its labels as one sealed LabelStore, so
// the query, the snapshot (the store's RLSTORE3 blob) and the size
// metrics are written here once; a subclass only builds the labels and
// keeps its own construction metadata.

#ifndef REACH_CORE_LABELING_ORACLE_H_
#define REACH_CORE_LABELING_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>

#include "core/label_store.h"
#include "core/oracle.h"
#include "graph/digraph.h"
#include "util/mapped_blob.h"
#include "util/status.h"

namespace reach {

/// A reachability oracle whose whole query state is one sealed LabelStore.
/// Snapshots hold that store's blob: SaveIndex writes it, and LoadMapped
/// serves the same bytes in place. After LoadMapped the subclass's
/// construction metadata (DL's order(), HL's hierarchy()) is empty; it is
/// not part of the snapshot.
class LabelingOracle : public ReachabilityOracle {
 public:
  bool Reachable(Vertex u, Vertex v) const final {
    return u == v || labeling_.Query(u, v);
  }
  /// The frame's lookups run through LabelStore::QueryMany's prefetch
  /// pipeline.
  void ReachableMany(std::span<const VertexPair> pairs,
                     std::span<uint8_t> answers) const final;

  bool SupportsSnapshot() const final { return true; }
  Status SaveIndex(std::ostream& out) const final {
    return labeling_.Write(out);
  }

  uint64_t IndexSizeIntegers() const final {
    return labeling_.TotalEntries();
  }
  uint64_t IndexSizeBytes() const final { return labeling_.MemoryBytes(); }

  /// The sealed labels. Key spaces differ: DL's hop keys are total-order
  /// positions, HL's and 2HOP's are vertex ids.
  const LabelStore& labeling() const { return labeling_; }

 protected:
  /// Maps the snapshot blob (validated by LabelStore::FromMapped) and
  /// checks that it covers `num_vertices`; Corruption naming name() when
  /// it does not.
  Status LoadIndexMapped(size_t num_vertices, MappedRegion region) final;

  /// The last step of a BuildIndex, once the labels are final: records
  /// label_storage_bytes (the builder's high-water) and seal_millis, and
  /// seals the rows into the query layout on build_threads() workers.
  void SealLabels(LabelBuilder&& builder);

 private:
  LabelStore labeling_;
};

}  // namespace reach

#endif  // REACH_CORE_LABELING_ORACLE_H_
