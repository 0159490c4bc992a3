// O'Reach-style O(1) pre-filter tier (Hanauer et al., arxiv 2008.10932):
// a composable wrapper that answers most reachability queries from a few
// flat per-vertex arrays — topological-order interval containment, support-
// vertex reachability bits, and longest-path level bounds — and falls back
// to the wrapped oracle only on the residue.
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
/// All auxiliary arrays are built sequentially, so they are byte-identical
/// for any BuildOptions::threads value (the threading contract in
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
  /// flight; the counters are relaxed atomics).
  PrefilterStageCounters counters() const;
  void ResetCounters();

  /// Counting costs one uncontended locked add per query — real money next
  /// to a two-cache-line screen. The server keeps it on (STATS exports the
  /// counters); the bench turns it off inside timed loops and measures hit
  /// rates in a separate untimed pass. Flip only while no queries are in
  /// flight.
  void set_counting_enabled(bool enabled) { counting_ = enabled; }
  bool counting_enabled() const { return counting_; }

  const ReachabilityOracle& inner() const { return *inner_; }
  ReachabilityOracle& inner() { return *inner_; }

  /// Auxiliary arrays, exposed for the determinism test battery.
  const std::vector<uint32_t>& topo_positions() const { return topo_pos_; }
  const std::vector<uint32_t>& tree_interval_in() const { return tree_in_; }
  const std::vector<uint32_t>& tree_interval_out() const { return tree_out_; }
  const std::vector<uint32_t>& forward_max_positions() const { return fmax_; }
  const std::vector<uint32_t>& backward_min_positions() const { return bmin_; }
  const std::vector<uint32_t>& forward_levels() const { return flevel_; }
  const std::vector<uint32_t>& backward_levels() const { return blevel_; }
  const std::vector<Vertex>& supports() const { return supports_; }
  const std::vector<uint64_t>& forward_masks() const { return fmask_; }
  const std::vector<uint64_t>& backward_masks() const { return bmask_; }

 protected:
  Status BuildIndex(const Digraph& dag) override;
  Status LoadIndexMapped(const Digraph& dag, MappedRegion region) override;
  void AnnotateBuildStats(BuildStats& stats) const override;

 private:
  // Every stage operand for one query endpoint, packed into a single
  // 64-byte cache line: the hot path loads records_[u] and records_[v]
  // and never touches the cold per-field arrays (which stay authoritative
  // for snapshots, probes, and the determinism tests). Without the
  // packing a screened query pays up to seven scattered-array misses —
  // more than the wrapped labeling's own range-rejected lookup costs.
  struct alignas(64) QueryRecord {
    uint32_t tree_in = 0;
    uint32_t tree_out = 0;
    uint32_t topo_pos = 0;
    uint32_t fmax = 0;
    uint32_t bmin = 0;
    uint32_t flevel = 0;
    uint32_t blevel = 0;
    uint32_t pad = 0;
    uint64_t fmask = 0;
    uint64_t bmask = 0;
  };
  static_assert(sizeof(QueryRecord) == 64, "one cache line per vertex");

  void BuildAux(const Digraph& dag);
  /// LoadIndexMapped's front half: parses and validates the aux section
  /// (header, arrays, alignment pad) from the front of `bytes`; the
  /// wrapped oracle's blob follows it. The aux tables are index-typed
  /// (they address arrays at query time), so they are always
  /// deep-validated and copied — only the wrapped labeling is zero-copy.
  Status LoadAux(const Digraph& dag, std::span<const std::byte> bytes);
  void PackRecords();
  uint64_t AuxIntegers() const;
  uint64_t AuxBytes() const;

  std::unique_ptr<ReachabilityOracle> inner_;
  size_t n_ = 0;
  std::vector<QueryRecord> records_;

  // Stage 1: topological positions, DFS spanning-forest intervals, and the
  // max/min topological position reachable from / reaching each vertex.
  std::vector<uint32_t> topo_pos_;
  std::vector<uint32_t> tree_in_;
  std::vector<uint32_t> tree_out_;
  std::vector<uint32_t> fmax_;
  std::vector<uint32_t> bmin_;

  // Stage 2: sampled supports and per-vertex reachability bit masks.
  // fmask_[v] bit i  <=>  supports_[i] reaches v;
  // bmask_[v] bit i  <=>  v reaches supports_[i].
  std::vector<Vertex> supports_;
  std::vector<uint64_t> fmask_;
  std::vector<uint64_t> bmask_;

  // Stage 3: longest-path levels, forward (from sources) and backward
  // (from sinks, i.e. on the reversed DAG).
  std::vector<uint32_t> flevel_;
  std::vector<uint32_t> blevel_;

  bool counting_ = true;
  mutable std::atomic<uint64_t> interval_yes_{0};
  mutable std::atomic<uint64_t> interval_no_{0};
  mutable std::atomic<uint64_t> support_yes_{0};
  mutable std::atomic<uint64_t> support_no_{0};
  mutable std::atomic<uint64_t> level_no_{0};
  mutable std::atomic<uint64_t> fallback_{0};
};

}  // namespace reach

#endif  // REACH_CORE_PREFILTER_H_
