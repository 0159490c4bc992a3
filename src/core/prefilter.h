// O'Reach-style O(1) pre-filter tier (Hanauer et al., arxiv 2008.10932):
// a composable wrapper that answers most reachability queries from one
// packed record per endpoint — topological-order interval containment,
// support-vertex reachability bits, and longest-path level bounds — and
// falls back to the wrapped oracle only on the residue.
//
// Soundness contract: every stage is three-valued (kYes / kNo / kMaybe).
// A definite verdict must be provably correct for the built DAG; a stage
// that cannot prove the answer says kMaybe and the query moves on. The
// wrapper therefore never changes an answer — PrefilterOracle(X) and bare
// X are bit-identical on every query (tests/integration/
// differential_fuzz_test.cc enforces this across the oracle matrix).

#ifndef REACH_CORE_PREFILTER_H_
#define REACH_CORE_PREFILTER_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "graph/digraph.h"
#include "util/status.h"

namespace reach {

/// Verdict of a single pre-filter stage. kYes/kNo are definitive and must
/// be correct; kMaybe defers to the next stage or the wrapped oracle.
enum class PrefilterVerdict : uint8_t { kNo, kYes, kMaybe };

/// Per-stage hit counters of the pre-filter tier. A "hit" is a query the
/// filter answered definitively without touching the wrapped oracle;
/// `fallback` counts the residue that did reach it.
struct PrefilterStageCounters {
  uint64_t interval_yes = 0;  // Spanning-forest interval containment.
  uint64_t interval_no = 0;   // Topo position / fmax / bmin bounds.
  uint64_t support_yes = 0;   // u -> support s -> v witness bit.
  uint64_t support_no = 0;    // Support-set containment violated.
  uint64_t level_no = 0;      // Forward/backward level bounds.
  uint64_t fallback = 0;      // Residue answered by the wrapped oracle.

  uint64_t Hits() const {
    return interval_yes + interval_no + support_yes + support_no + level_no;
  }
  uint64_t Total() const { return Hits() + fallback; }
};

/// Wraps any ReachabilityOracle with three O(1) screening stages:
///
///  1. Topological intervals — a deterministic DFS spanning forest gives
///     every vertex an [in, out] interval; containment proves YES (the
///     tree path is a real path). Topological positions plus the min/max
///     position reachable from / reaching each vertex prove NO.
///  2. Support bits — k sampled high-degree "support" vertices with full
///     forward/backward reachability bitmaps. A shared support on a
///     u -> s -> v path proves YES; a violated containment relation
///     (u -> v forces fmask[u] subset-of fmask[v] and bmask[v] subset-of
///     bmask[u]) proves NO.
///  3. Level bounds — longest-path levels from sources and to sinks; an
///     edge on any u -> v path strictly increases the forward level and
///     strictly decreases the backward one.
///
/// The only per-vertex state is one 64-byte record of every stage operand;
/// Reachable and the per-stage probes run the same stage functions on it.
/// The records are built sequentially, so they are byte-identical for any
/// BuildOptions::threads value (the threading contract in
/// docs/ARCHITECTURE.md); the wrapped oracle builds with the caller's
/// thread count as usual.
class PrefilterOracle : public ReachabilityOracle {
 public:
  /// Support sample size; clamped to the vertex count. 64 fills the one
  /// uint64_t word per vertex and side exactly, so the query-time cost is
  /// one AND regardless — only the build pays (two BFS per support).
  static constexpr uint32_t kMaxSupports = 64;

  explicit PrefilterOracle(std::unique_ptr<ReachabilityOracle> inner);

  bool Reachable(Vertex u, Vertex v) const override;
  std::string name() const override;  // inner name + "+pf"
  bool ConcurrentQuerySafe() const override;
  bool SupportsSnapshot() const override;
  Status SaveIndex(std::ostream& out) const override;
  uint64_t IndexSizeIntegers() const override;
  uint64_t IndexSizeBytes() const override;

  /// Per-stage probes in isolation, public for the soundness test battery
  /// (tests/core/prefilter_test.cc): each may answer kMaybe freely but a
  /// kYes/kNo must match BFS ground truth. Self-queries are kYes by the
  /// reflexive Reachable contract.
  PrefilterVerdict TopoIntervalStage(Vertex u, Vertex v) const;
  PrefilterVerdict SupportStage(Vertex u, Vertex v) const;
  PrefilterVerdict LevelStage(Vertex u, Vertex v) const;

  /// Race-free snapshot of the live stage counters (queries may be in
  /// flight; the counters are relaxed atomics). The server's STATS reply
  /// exports them.
  PrefilterStageCounters counters() const;
  void ResetCounters();

  const ReachabilityOracle& inner() const { return *inner_; }
  ReachabilityOracle& inner() { return *inner_; }

  /// The sampled support vertices, bit i of the masks standing for
  /// supports()[i].
  const std::vector<Vertex>& supports() const { return supports_; }

 protected:
  Status BuildIndex(const Dag& dag) override;
  Status LoadIndexMapped(size_t num_vertices, MappedRegion region) override;
  void AnnotateBuildStats(BuildStats& stats) const override;

 private:
  // Every stage operand for one query endpoint, packed into a single
  // 64-byte cache line: a query loads records_[u] and records_[v] and
  // nothing else. Spread over per-field arrays, a screened query would pay
  // up to seven scattered misses — more than the wrapped labeling's own
  // range-rejected lookup costs.
  struct alignas(64) QueryRecord {
    uint32_t tree_in = 0;   // Stage 1: DFS spanning-forest interval,
    uint32_t tree_out = 0;
    uint32_t topo_pos = 0;  // topological position,
    uint32_t fmax = 0;      // max position reachable from v,
    uint32_t bmin = 0;      // min position reaching v.
    uint32_t flevel = 0;    // Stage 3: longest-path level from sources,
    uint32_t blevel = 0;    // and to sinks.
    uint32_t pad = 0;
    uint64_t fmask = 0;     // Stage 2: bit i <=> supports_[i] reaches v.
    uint64_t bmask = 0;     // Stage 2: bit i <=> v reaches supports_[i].
  };
  static_assert(sizeof(QueryRecord) == 64, "one cache line per vertex");

  // The three stages, each written once over the endpoints' records. They
  // assume u != v: Reachable runs the interval stage first, which answers
  // every self-query YES, and the public probes short-circuit u == v.
  static PrefilterVerdict IntervalVerdict(const QueryRecord& u,
                                          const QueryRecord& v);
  static PrefilterVerdict SupportVerdict(const QueryRecord& u,
                                         const QueryRecord& v);
  static PrefilterVerdict LevelVerdict(const QueryRecord& u,
                                       const QueryRecord& v);

  void BuildAux(const Dag& dag);
  /// LoadIndexMapped's front half: parses and validates the aux section
  /// of an `n`-vertex DAG (header, columns, alignment pad) from the front
  /// of `bytes`; the wrapped oracle's blob follows it. The aux columns are
  /// index-typed (they address arrays at query time), so they are always
  /// deep-validated and copied into the records — only the wrapped
  /// labeling is zero-copy.
  Status LoadAux(size_t n, std::span<const std::byte> bytes);

  std::unique_ptr<ReachabilityOracle> inner_;
  std::vector<QueryRecord> records_;
  std::vector<Vertex> supports_;

  // Live stage counters, in PrefilterStageCounters' field order.
  enum Counter { kIntervalYes, kIntervalNo, kSupportYes, kSupportNo,
                 kLevelNo, kFallback, kNumCounters };
  mutable std::atomic<uint64_t> counts_[kNumCounters] = {};
};

}  // namespace reach

#endif  // REACH_CORE_PREFILTER_H_
