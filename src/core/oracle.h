// Common interface every reachability index in this library implements,
// plus the construction budget used by the benchmark harness to reproduce
// the paper's "method did not finish" table entries at laptop scale.

#ifndef REACH_CORE_ORACLE_H_
#define REACH_CORE_ORACLE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "graph/digraph.h"
#include "graph/topology.h"
#include "util/mapped_blob.h"
#include "util/status.h"

namespace reach {

/// Limits applied during index construction. Zero means unlimited.
/// Oracles check the limits at coarse-grained checkpoints and abort with
/// ResourceExhausted, mirroring the paper's 24-hour / 32 GB budget that
/// produced the "--" entries in Tables 5-7. Build() holds every index
/// oracle to max_seconds once more at the end, so a build that finishes
/// past its budget between two checkpoints (or in an oracle that has
/// none) is not reported as finished.
struct BuildBudget {
  double max_seconds = 0;
  uint64_t max_index_integers = 0;

  bool IsUnlimited() const {
    return max_seconds == 0 && max_index_integers == 0;
  }
};

/// Construction-time knobs common to every oracle, passed per Build() call
/// (unlike BuildBudget, which is sticky oracle state set via set_budget).
struct BuildOptions {
  /// Worker threads for index construction. 0 (the default) resolves to
  /// the REACH_THREADS environment variable when set, else the hardware
  /// concurrency; any value >= 1 is used exactly (see
  /// util/thread_pool.h: DefaultBuildThreads).
  ///
  /// Determinism guarantee: the thread count only changes construction
  /// wall time, never the result — for every oracle in this library the
  /// built index is byte-identical, and every query answers identically,
  /// for any `threads` value (docs/ARCHITECTURE.md, "Threading contract").
  int threads = 0;
};

/// Outcome of the last Build() call, recorded by the base class so that
/// consumers (the bench harness, the CLI's --stats) read construction wall
/// time, index size, and the budget-exceeded reason from one place instead
/// of re-deriving them with ad-hoc timers per call site.
struct BuildStats {
  double build_millis = 0;
  uint64_t index_integers = 0;  // Valid only after an OK build.
  uint64_t index_bytes = 0;     // Valid only after an OK build.
  int threads = 0;              // Resolved worker count used by the build.
  /// Construction phases, zero after a snapshot load. Vertex ordering
  /// (HL: building the hierarchy) and label construction are timed by DL
  /// and HL only; Seal() into the query layout by every labeling oracle
  /// (DL, HL/TF and 2HOP: core/labeling_oracle.h). Zero elsewhere.
  double order_millis = 0;
  double label_millis = 0;
  double seal_millis = 0;
  /// The label phase of DL and of HL's DL-built core (DistributeLabels),
  /// split by step and summed over its hop batches: the parallel pruned
  /// searches, the serial collection of in-batch witnesses between them
  /// and the append, and the parallel append that drops the witnessed
  /// entries. Zero elsewhere.
  double search_millis = 0;
  double cleanup_millis = 0;
  double append_millis = 0;
  uint64_t batches = 0;
  /// The same searches' pruning probes (MarkedIntersects), summed over
  /// the batches: candidates probed against their hop's label side, the
  /// probes that pruned their candidate, and the candidates' row keys the
  /// probes read. Equal at any thread count. Zero elsewhere.
  uint64_t probes = 0;
  uint64_t pruned = 0;
  uint64_t row_keys_read = 0;
  /// LabelBuilder::StorageBytes() as the labels were sealed: the build's
  /// high-water of label row storage (DL, HL and 2HOP; zero elsewhere and
  /// after a snapshot load).
  uint64_t label_storage_bytes = 0;
  /// DistributionOrderName of the hop order that ranked DL's vertices or
  /// HL's core. Empty for other methods and after a snapshot load.
  std::string order;
  bool ok = false;
  bool budget_exceeded = false;  // Build returned ResourceExhausted.
  std::string failure_reason;    // Status message when !ok, else empty.
};

/// A reachability oracle over a DAG: after Build, Reachable(u, v) answers
/// whether u reaches v (reflexively: Reachable(v, v) is true).
///
/// Ownership & thread-safety:
///  - An oracle owns its index storage outright; it never aliases the input
///    Digraph after Build() returns (OnlineSearchOracle, which answers by
///    traversal, keeps its own copy).
///  - Build() is NOT thread-safe: one Build per oracle, from one thread.
///    Construction may fan work out internally across BuildOptions.threads
///    workers, but that parallelism never escapes the Build() call.
///  - After a successful Build(), Reachable()/IndexSize*/build_stats() are
///    const and — when ConcurrentQuerySafe() is true — safe to call
///    concurrently from any number of threads. Oracles that answer by
///    (partial) traversal over reused scratch (online search, GRAIL,
///    SCARAB) return false there; concurrent callers such as the server
///    serialize their queries behind a reach::Mutex (util/sync.h — the
///    annotated primitive every lock in this library uses, so the
///    serialization protocol is checked by -Wthread-safety on clang;
///    the server's instance is ReachServer::query_mutex_).
class ReachabilityOracle {
 public:
  virtual ~ReachabilityOracle() = default;

  /// Builds the index for `dag`, which must be acyclic: one Kahn pass
  /// (Dag::Check) proves it, then the build runs as Build(const Dag&).
  /// Returns InvalidArgument on cyclic input, with build_stats().ok false.
  Status Build(const Digraph& dag, const BuildOptions& options = {});

  /// Builds the index for an already proven DAG, with no acyclicity pass
  /// of its own. Returns ResourceExhausted when the budget is exceeded,
  /// including an index that took longer than budget().max_seconds in all
  /// (the online searchers, which store no index, are exempt). An oracle
  /// must be built exactly once. Non-virtual: times the method-specific
  /// BuildIndex() and records build_stats(). The resolved thread count is
  /// recorded in build_stats().threads; per the determinism guarantee
  /// (BuildOptions::threads) it affects wall time only.
  Status Build(const Dag& dag, const BuildOptions& options = {});

  /// Restores a previously saved index over a DAG of `num_vertices`
  /// vertices instead of constructing it — the restart-without-rebuild
  /// path. The oracle serves its sealed index straight out of `region`
  /// (util/mapped_blob.h: an mmap of the snapshot file, or the same bytes
  /// read onto the heap), retaining the region's blob for the oracle's
  /// lifetime, so load cost is O(pages validated), not O(index size). Like
  /// Build it may run exactly once, records build_stats() (build_millis is
  /// the load time), and leaves the oracle ready to answer queries for
  /// exactly the graph the snapshot was saved from. The vertex count is
  /// all a load checks (the sealed blob carries it, but not the edges), so
  /// callers are responsible for pairing snapshot and graph. NotSupported
  /// unless SupportsSnapshot().
  Status LoadMapped(size_t num_vertices, MappedRegion region);

  /// Writes the built index to `out` in the method's sealed snapshot
  /// format (core/label_store.h for the labeling oracles). Only valid
  /// after a successful Build or LoadMapped. NotSupported unless
  /// SupportsSnapshot().
  virtual Status SaveIndex(std::ostream& out) const;

  /// True when this oracle implements SaveIndex/LoadMapped. The
  /// labeling-based methods (DL, HL/TF, 2HOP: core/labeling_oracle.h) do:
  /// their whole query state is one sealed LabelStore blob, and the bytes
  /// SaveIndex writes are the bytes LoadMapped serves. Traversal- and
  /// TC-based methods do not.
  virtual bool SupportsSnapshot() const { return false; }

  /// True iff u reaches v. Only valid after a successful Build.
  virtual bool Reachable(Vertex u, Vertex v) const = 0;

  /// Short method name as used in the paper's tables ("DL", "HL", "GL", ...).
  virtual std::string name() const = 0;

  /// True when Reachable() may be called concurrently from multiple threads
  /// after a successful Build (the default; labeling-based indexes are
  /// read-only at query time). The online-search oracles override this to
  /// false because they reuse per-query scratch — concurrent callers (the
  /// server's sessions) must then serialize queries themselves.
  virtual bool ConcurrentQuerySafe() const { return true; }

  /// Index size in number of stored integers — the metric of Figures 3/4.
  virtual uint64_t IndexSizeIntegers() const = 0;

  /// Approximate index heap footprint in bytes.
  virtual uint64_t IndexSizeBytes() const = 0;

  /// Statistics of the last Build() call (zero-initialized before it).
  const BuildStats& build_stats() const { return build_stats_; }

  void set_budget(const BuildBudget& budget) { budget_ = budget; }
  const BuildBudget& budget() const { return budget_; }

 protected:
  /// Method-specific construction; invoked exactly once by Build(). The
  /// Dag is trusted: it carries its Kahn order, which an oracle that needs
  /// a topological order reads instead of sorting again.
  virtual Status BuildIndex(const Dag& dag) = 0;

  /// Method-specific snapshot restore; invoked exactly once by
  /// LoadMapped(), on an oracle that was never built. Implementations
  /// validate the (untrusted) region without ever touching bytes past its
  /// end, check it against `num_vertices`, retain region.blob for every
  /// pointer they keep into it, and leave the oracle answering exactly as
  /// the saved one did.
  virtual Status LoadIndexMapped(size_t num_vertices, MappedRegion region);

  /// Hook for method-specific BuildStats fields, invoked by
  /// Build()/LoadMapped() after the common fields are filled (the
  /// PrefilterOracle wrapper copies its wrapped oracle's phases here).
  virtual void AnnotateBuildStats(BuildStats&) const {}

  /// The resolved worker count for the current Build() call (always >= 1).
  /// Valid inside BuildIndex(); implementations pass it to ParallelFor /
  /// ParallelChunks (util/thread_pool.h). Implementations that have no
  /// parallel phase simply ignore it.
  int build_threads() const { return build_threads_; }

  BuildBudget budget_;
  BuildStats build_stats_;

 private:
  int build_threads_ = 1;
};

}  // namespace reach

#endif  // REACH_CORE_ORACLE_H_
