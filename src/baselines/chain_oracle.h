// PT stand-in: chain-cover compression of the transitive closure
// (Jagadish [18], the direct ancestor of Path-Tree [21] — see DESIGN.md for
// the substitution rationale). The DAG is decomposed into node-disjoint
// chains; TC(u) is stored as, per chain, the minimum position on that chain
// reachable from u. A query u -> v checks v's chain entry in u's table:
// O(log #chains-with-entries).

#ifndef REACH_BASELINES_CHAIN_ORACLE_H_
#define REACH_BASELINES_CHAIN_ORACLE_H_

#include <string>
#include <vector>

#include "core/oracle.h"
#include "graph/digraph.h"

namespace reach {

/// Chain-compressed transitive closure ("PT" column in the tables).
class ChainOracle : public ReachabilityOracle {
 protected:
  Status BuildIndex(const Dag& dag) override;

 public:

  bool Reachable(Vertex u, Vertex v) const override;

  std::string name() const override { return "PT"; }
  uint64_t IndexSizeIntegers() const override;
  uint64_t IndexSizeBytes() const override;

  /// Number of chains in the greedy cover (compression quality metric).
  size_t num_chains() const { return num_chains_; }

 private:
  // Sorted (chain id, min position) pairs per vertex; chain ids in the upper
  // 32 bits keep one flat uint64 vector binary-searchable.
  static uint64_t PackEntry(uint32_t chain, uint32_t pos) {
    return (static_cast<uint64_t>(chain) << 32) | pos;
  }

  size_t num_chains_ = 0;
  std::vector<uint32_t> chain_of_;
  std::vector<uint32_t> pos_in_chain_;
  std::vector<std::vector<uint64_t>> reach_;  // Packed (chain, min pos).
};

}  // namespace reach

#endif  // REACH_BASELINES_CHAIN_ORACLE_H_
