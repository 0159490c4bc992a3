// Distribution Labeling (paper Section 5, Algorithm 2). Vertices are ranked
// into a total order (default: a sketched cover-per-cost score, with the
// paper's (|Nout|+1)*(|Nin|+1) score as tie-break; see DistributionOrder);
// each vertex vi is then "distributed" as a hop: a reverse BFS adds vi to
// Lout(u) of every u in TC^-1(vi) \ TC^-1(X), a forward BFS adds vi to
// Lin(w) of every w in TC(vi) \ TC(Y), both implemented by pruning the
// traversal wherever the current labels already certify coverage (Lines 4
// and 10 of Algorithm 2). The result is complete (Theorem 3) and
// non-redundant (Theorem 4).

#ifndef REACH_CORE_DISTRIBUTION_LABELING_H_
#define REACH_CORE_DISTRIBUTION_LABELING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/label_store.h"
#include "core/labeling_oracle.h"
#include "core/oracle.h"
#include "graph/digraph.h"
#include "util/status.h"

namespace reach {

/// Processing order of Algorithm 2's outer loop ("Vertex Order", Section 5.2).
enum class DistributionOrder {
  /// The paper's rank (|Nout(v)|+1) * (|Nin(v)|+1), descending, ties by
  /// ascending id. Kept for reproducing the paper's figures.
  kDegreeProduct,
  /// Uniform random order (ablation: shows the rank function matters).
  kRandom,
  /// Topological order (ablation).
  kTopological,
  /// Ascending degree product (ablation: adversarially bad order).
  kReverseDegreeProduct,
  /// Default. The set-cover price of v as a center: the pairs it covers per
  /// label entry, a*d / (a+d), where a = |anc(v)| and d = |desc(v)| (both
  /// counting v) are HyperLogLog estimates. Ranked by floor(log2) of that
  /// price, descending, then by the paper's rank, then by ascending id.
  /// When the closure is dense (the mean (a+d) / |members| is above 1/2) the
  /// octaves stop separating hops and the order is kDegreeProduct's.
  kCoverPerCost,
};

std::string DistributionOrderName(DistributionOrder order);

struct DistributionOptions {
  DistributionOrder order = DistributionOrder::kCoverPerCost;
};

/// Core routine shared by the DL oracle and by Hierarchical Labeling's
/// core-graph labeler: runs Algorithm 2 on `g` over exactly the vertices in
/// `order` (processed front to back), writing hop keys `key_of[v]` into
/// `labeling` (which must cover g's vertices and be empty for all touched
/// vertices).
/// Keys must be injective over `order`; each row is kept sorted by
/// LabelBuilder's insert, which appends in O(1) when keys arrive ascending
/// (order positions). Traversals never leave the `order` vertex set,
/// because `g` is required to have edges only among those vertices.
///
/// One worker per row partition of `labeling` (LabelBuilder::parts())
/// searches a batch of consecutive hops concurrently (against the labels
/// of earlier batches), and then one task per partition appends the
/// entries no earlier hop of the same batch covers to its own rows, in
/// batch order. The result is the sequential loop's canonical labeling,
/// byte-identical for every partition count (see the .cc for the
/// argument). Vertex ids and keys are both below g.num_vertices(): the
/// search marks each hop's label side by key.
///
/// `stats`, when given, accumulates the wall time of the phases into
/// search_millis, cleanup_millis and append_millis, and counts batches
/// and the searches' probes, pruned probes and row keys read.
void DistributeLabels(const Digraph& g, const std::vector<Vertex>& order,
                      const std::vector<uint32_t>& key_of,
                      LabelBuilder* labeling, BuildStats* stats = nullptr);

/// Computes the processing order of `members` under the given policy.
/// Deterministic for any `threads` (only per-vertex sweeps are parallel).
/// kTopological and kCoverPerCost read the Dag's Kahn order.
/// kCoverPerCost estimates closure sizes in all of the graph, so it should
/// have edges only among `members` (as DistributeLabels requires anyway).
/// `applied`, when given, receives the policy that actually ranked the
/// members (kDegreeProduct after kCoverPerCost's dense-closure fallback).
std::vector<Vertex> ComputeDistributionOrder(
    const Dag& dag, const std::vector<Vertex>& members,
    const DistributionOptions& options, int threads = 1,
    DistributionOrder* applied = nullptr);

/// The DL reachability oracle.
class DistributionLabelingOracle : public LabelingOracle {
 public:
  explicit DistributionLabelingOracle(DistributionOptions options = {})
      : options_(options) {}

  std::string name() const override { return "DL"; }

  /// The vertex processed at order position i: a hop's key is its
  /// position. Construction metadata, empty after LoadMapped.
  const std::vector<Vertex>& order() const { return order_; }

 protected:
  Status BuildIndex(const Dag& dag) override;

 private:
  DistributionOptions options_;
  std::vector<Vertex> order_;
};

}  // namespace reach

#endif  // REACH_CORE_DISTRIBUTION_LABELING_H_
