// Online-search "oracles": no index beyond the graph itself. Plain forward
// BFS, DFS, and bidirectional BFS. These are the no-precomputation extreme of
// the design space (paper Section 2.1) and double as trusted ground truth in
// tests and workload generation.

#ifndef REACH_BASELINES_ONLINE_SEARCH_H_
#define REACH_BASELINES_ONLINE_SEARCH_H_

#include <string>
#include <vector>

#include "core/oracle.h"
#include "graph/digraph.h"

namespace reach {

/// Search strategy for OnlineSearchOracle.
enum class SearchKind { kBfs, kDfs, kBidirectionalBfs };

/// Index-free reachability: answers queries by traversal. Thread-compatible
/// but not thread-safe (reuses scratch buffers across queries).
class OnlineSearchOracle : public ReachabilityOracle {
 public:
  explicit OnlineSearchOracle(SearchKind kind = SearchKind::kBfs)
      : kind_(kind) {}

 protected:
  Status BuildIndex(const Dag& dag) override;

 public:
  bool Reachable(Vertex u, Vertex v) const override;

  std::string name() const override {
    switch (kind_) {
      case SearchKind::kBfs:
        return "BFS";
      case SearchKind::kDfs:
        return "DFS";
      case SearchKind::kBidirectionalBfs:
        return "BiBFS";
    }
    return "search";
  }
  /// Stores nothing beyond the graph.
  uint64_t IndexSizeIntegers() const override { return 0; }
  uint64_t IndexSizeBytes() const override { return 0; }

  /// Queries mutate the shared scratch above; concurrent callers must
  /// serialize (see ReachabilityOracle::ConcurrentQuerySafe).
  bool ConcurrentQuerySafe() const override { return false; }

 private:
  bool BfsQuery(Vertex u, Vertex v) const;
  bool DfsQuery(Vertex u, Vertex v) const;
  bool BidirectionalQuery(Vertex u, Vertex v) const;

  SearchKind kind_;
  Digraph graph_;
  // Epoch-marked scratch (mutable: queries are logically const).
  mutable std::vector<uint32_t> fwd_mark_;
  mutable std::vector<uint32_t> bwd_mark_;
  mutable uint32_t epoch_ = 0;
  mutable std::vector<Vertex> fwd_queue_;
  mutable std::vector<Vertex> bwd_queue_;
};

}  // namespace reach

#endif  // REACH_BASELINES_ONLINE_SEARCH_H_
