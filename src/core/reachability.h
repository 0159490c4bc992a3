// End-user façade: answers reachability on an arbitrary directed graph
// (cycles allowed) by condensing strongly connected components into a DAG
// (paper Section 2) and delegating to any ReachabilityOracle built on the
// condensation. A graph that is already a DAG is its own condensation and
// is indexed in place. Queries are posed in original vertex ids.

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
///
/// Identity mode: when the graph is a DAG, the index keeps no condensation
/// of its own. Component ids are vertex ids, and dag() is the graph passed
/// to Build or LoadMapped, which must then outlive the index (the server,
/// reach_cli and perfbench keep their graph for the index's lifetime).
class ReachabilityIndex {
 public:
  /// Builds `oracle` over `g` (with `options` forwarded to
  /// ReachabilityOracle::Build, e.g. the thread count) and returns the
  /// ready-to-query index.
  ///
  /// One Dag::Check pass (Kahn's algorithm) decides how, and its Dag is
  /// the oracle's proof of acyclicity (ReachabilityOracle::Build(const
  /// Dag&)), so no oracle sorts again. A DAG is indexed in place, in
  /// identity mode: the oracle builds straight over `g`, and no Tarjan
  /// pass, no copy of the graph and no component map are made. A cyclic
  /// graph is condensed (CondenseToDag), one Dag::Check pass over the
  /// condensation makes its Dag, and the index owns the condensation.
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
  /// g.num_vertices(), the labels were keyed by original vertex ids (Build
  /// indexes a DAG in place, and only a DAG's condensation can match the
  /// raw vertex count), so the oracle loads directly over `g` in identity
  /// mode and neither Tarjan nor the condensed-graph materialization — nor
  /// an O(n + m) acyclicity re-check — runs. The peeked count is
  /// untrusted; the oracle's own validated load re-checks it against the
  /// graph. A count mismatch (every cyclic graph's snapshot) falls back to
  /// the eager condensation.
  static StatusOr<ReachabilityIndex> LoadMapped(
      const Digraph& g, std::unique_ptr<ReachabilityOracle> oracle,
      MappedRegion region, BuildStats* stats_out = nullptr);

  /// True iff a directed path from u to v exists in the original graph
  /// (trivially true when u == v or both lie in one SCC).
  bool Reachable(Vertex u, Vertex v) const {
    if (graph_ != nullptr) return u == v || oracle_->Reachable(u, v);
    const Vertex cu = condensation_.component[u];
    const Vertex cv = condensation_.component[v];
    return cu == cv || oracle_->Reachable(cu, cv);
  }

  /// The DAG the oracle was built on: in identity mode the caller's graph
  /// itself (same object), else the condensation the index owns.
  const Digraph& dag() const {
    return graph_ != nullptr ? *graph_ : condensation_.dag;
  }
  /// SCC id of an original vertex.
  Vertex ComponentOf(Vertex v) const {
    return graph_ != nullptr ? v : condensation_.component[v];
  }
  size_t num_components() const {
    return graph_ != nullptr ? graph_->num_vertices()
                             : condensation_.num_components;
  }
  /// True when the index skipped SCC condensation entirely (a build or a
  /// lazy load over a DAG): component ids are original vertex ids and
  /// dag() is the caller's graph. reach_serve logs this, STATS reports it
  /// as identity_scc, and the smoke scripts pin it.
  bool identity_condensation() const { return graph_ != nullptr; }
  const ReachabilityOracle& oracle() const { return *oracle_; }

 private:
  ReachabilityIndex(Condensation condensation,
                    std::unique_ptr<ReachabilityOracle> oracle)
      : condensation_(std::move(condensation)), oracle_(std::move(oracle)) {}
  ReachabilityIndex(const Digraph& dag,
                    std::unique_ptr<ReachabilityOracle> oracle)
      : graph_(&dag), oracle_(std::move(oracle)) {}

  Condensation condensation_;      // Empty in identity mode.
  const Digraph* graph_ = nullptr;  // Identity mode only: the caller's DAG.
  std::unique_ptr<ReachabilityOracle> oracle_;
};

}  // namespace reach

#endif  // REACH_CORE_REACHABILITY_H_
