// End-user façade: answers reachability on an arbitrary directed graph
// (cycles allowed) by condensing strongly connected components into a DAG
// (paper Section 2) and delegating to any ReachabilityOracle built on the
// condensation. Queries are posed in original vertex ids.

#ifndef REACH_CORE_REACHABILITY_H_
#define REACH_CORE_REACHABILITY_H_

#include <memory>

#include "core/oracle.h"
#include "graph/digraph.h"
#include "graph/scc.h"
#include "util/mapped_blob.h"
#include "util/status.h"

namespace reach {

/// Reachability index over a general digraph.
///
/// Usage:
///   auto index = ReachabilityIndex::Build(
///       graph, std::make_unique<DistributionLabelingOracle>());
///   if (index.ok() && index->Reachable(u, v)) { ... }
class ReachabilityIndex {
 public:
  /// Condenses `g`, builds `oracle` on the condensation (with `options`
  /// forwarded to ReachabilityOracle::Build, e.g. the thread count), and
  /// returns the ready-to-query index.
  ///
  /// `stats_out`, when non-null, receives the oracle's BuildStats after the
  /// build attempt — including on failure, when the consumed oracle (and
  /// with it build_stats()) is destroyed before the caller sees the status.
  /// The server and the serve benchmark report budget-exceeded builds this
  /// way.
  static StatusOr<ReachabilityIndex> Build(
      const Digraph& g, std::unique_ptr<ReachabilityOracle> oracle,
      const BuildOptions& options = {}, BuildStats* stats_out = nullptr);

  /// As Build, but restores the oracle's index from a snapshot
  /// (ReachabilityOracle::SaveIndex of an oracle built on the same graph)
  /// instead of constructing it: the oracle serves its sealed index
  /// straight out of `region`'s bytes (ReachabilityOracle::LoadMapped),
  /// and the index keeps the backing MappedBlob alive for its own
  /// lifetime. The restart-without-rebuild path of reach_serve
  /// --load-index.
  ///
  /// SCC condensation is lazy: when the snapshot's vertex count equals
  /// g.num_vertices(), the labels were keyed by original vertex ids
  /// (CondenseToDag returns the identity condensation for DAG inputs, and
  /// only a DAG's condensation can match the raw vertex count), so the
  /// oracle loads directly over `g` and neither Tarjan nor the
  /// condensed-graph materialization — nor an O(n + m) acyclicity re-check
  /// — runs. The peeked count is untrusted; the oracle's own validated
  /// load re-checks it against the graph. A count mismatch (every cyclic
  /// graph's snapshot) falls back to the eager condensation.
  static StatusOr<ReachabilityIndex> LoadMapped(
      const Digraph& g, std::unique_ptr<ReachabilityOracle> oracle,
      MappedRegion region, BuildStats* stats_out = nullptr);

  /// True iff a directed path from u to v exists in the original graph
  /// (trivially true when u == v or both lie in one SCC).
  bool Reachable(Vertex u, Vertex v) const {
    if (identity_) return u == v || oracle_->Reachable(u, v);
    const Vertex cu = condensation_.component[u];
    const Vertex cv = condensation_.component[v];
    return cu == cv || oracle_->Reachable(cu, cv);
  }

  /// The condensation DAG the oracle was built on. Only materialized when
  /// the condensation itself was (identity_condensation() false): the lazy
  /// load path serves straight off the input graph and returns an empty
  /// graph here — callers on that path already hold the graph.
  const Digraph& dag() const { return condensation_.dag; }
  /// SCC id of an original vertex.
  Vertex ComponentOf(Vertex v) const {
    return identity_ ? v : condensation_.component[v];
  }
  size_t num_components() const {
    return identity_ ? num_vertices_ : condensation_.num_components;
  }
  /// True when the index skipped SCC condensation entirely (lazy load fast
  /// path over a DAG): component ids are original vertex ids. reach_serve
  /// logs this and the large_smoke test pins it at startup.
  bool identity_condensation() const { return identity_; }
  const ReachabilityOracle& oracle() const { return *oracle_; }

 private:
  ReachabilityIndex(Condensation condensation,
                    std::unique_ptr<ReachabilityOracle> oracle)
      : condensation_(std::move(condensation)), oracle_(std::move(oracle)) {}
  ReachabilityIndex(size_t num_vertices,
                    std::unique_ptr<ReachabilityOracle> oracle)
      : identity_(true),
        num_vertices_(num_vertices),
        oracle_(std::move(oracle)) {}

  Condensation condensation_;  // Empty in identity mode.
  bool identity_ = false;
  size_t num_vertices_ = 0;  // Only meaningful in identity mode.
  std::unique_ptr<ReachabilityOracle> oracle_;
};

}  // namespace reach

#endif  // REACH_CORE_REACHABILITY_H_
