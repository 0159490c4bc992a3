#include "core/reachability.h"

#include <cstring>
#include <optional>
#include <utility>

#include "graph/topology.h"

namespace reach {

namespace {

/// Every snapshot blob in this library leads with [u64 magic][u64
/// vertex_count] (RLSTORE3 and the prefilter container alike). Untrusted —
/// only gates decisions the validated load re-checks.
std::optional<uint64_t> PeekMappedVertexCount(const MappedRegion& region) {
  const std::span<const std::byte> bytes = region.bytes();
  if (bytes.size() < 16) return std::nullopt;
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + 8, sizeof(count));
  return count;
}

/// True when the snapshot can be served in original vertex-id space: the
/// saved label count matches the raw graph, so the graph was a DAG that
/// Build indexed in place. No explicit acyclicity check runs —
/// a cyclic graph can never match, because its condensation always has
/// fewer components than vertices, so any snapshot actually saved from
/// this graph's index peeks below num_vertices(). (A snapshot from a
/// *different* graph that happens to match the count serves garbage
/// answers either way under the documented same-graph contract; the
/// oracle's validated load still bounds every access, so it stays
/// memory-safe.) Re-verifying acyclicity here would cost an O(n + m) pass
/// — on a 16M-vertex graph that is ~10x the entire mapped load — to
/// defend only the already-undefined mismatch case.
bool IdentityLoadApplies(const Digraph& g, std::optional<uint64_t> peeked) {
  return peeked.has_value() && *peeked == g.num_vertices();
}

}  // namespace

StatusOr<ReachabilityIndex> ReachabilityIndex::Build(
    const Digraph& g, std::unique_ptr<ReachabilityOracle> oracle,
    const BuildOptions& options, BuildStats* stats_out) {
  if (oracle == nullptr) {
    return Status::InvalidArgument("oracle must not be null");
  }
  // A DAG is its own condensation: index it in place, in identity mode,
  // with no Tarjan pass and no copy of the graph. The check's Dag is the
  // oracle's proof, so the oracle sorts nothing again.
  if (const StatusOr<Dag> dag = Dag::Check(g); dag.ok()) {
    const Status status = oracle->Build(*dag, options);
    if (stats_out != nullptr) *stats_out = oracle->build_stats();
    REACH_RETURN_IF_ERROR(status);
    return ReachabilityIndex(g, std::move(oracle));
  }
  Condensation condensation = CondenseToDag(g);
  const StatusOr<Dag> dag = Dag::Check(condensation.dag);
  REACH_RETURN_IF_ERROR(dag.status());  // A condensation is acyclic.
  const Status status = oracle->Build(*dag, options);
  if (stats_out != nullptr) *stats_out = oracle->build_stats();
  REACH_RETURN_IF_ERROR(status);
  return ReachabilityIndex(std::move(condensation), std::move(oracle));
}

StatusOr<ReachabilityIndex> ReachabilityIndex::LoadMapped(
    const Digraph& g, std::unique_ptr<ReachabilityOracle> oracle,
    MappedRegion region, BuildStats* stats_out) {
  if (oracle == nullptr) {
    return Status::InvalidArgument("oracle must not be null");
  }
  // Lazy-SCC fast path: a snapshot whose vertex count matches the raw
  // graph was built in place over a DAG, so the oracle can load directly
  // over `g` — no Tarjan pass, no condensed-graph materialization, no
  // acyclicity re-check (see IdentityLoadApplies). The peek is untrusted;
  // the oracle's validated cross-check rejects a forged count.
  if (IdentityLoadApplies(g, PeekMappedVertexCount(region))) {
    const Status status =
        oracle->LoadMapped(g.num_vertices(), std::move(region));
    if (stats_out != nullptr) *stats_out = oracle->build_stats();
    REACH_RETURN_IF_ERROR(status);
    return ReachabilityIndex(g, std::move(oracle));
  }
  // Eager fallback: recompute the condensation (linear time); only the
  // oracle's index — the expensive part — comes from the snapshot. It was
  // saved over the condensation of the same graph, so the vertex-count
  // cross-check inside the load catches a snapshot/graph mismatch.
  Condensation condensation = CondenseToDag(g);
  const Status status = oracle->LoadMapped(condensation.num_components,
                                             std::move(region));
  if (stats_out != nullptr) *stats_out = oracle->build_stats();
  REACH_RETURN_IF_ERROR(status);
  return ReachabilityIndex(std::move(condensation), std::move(oracle));
}

}  // namespace reach
