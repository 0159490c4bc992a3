// SCARAB (Jin, Ruan, Dey, Yu; SIGMOD 2012): scaling an existing reachability
// index through the reachability backbone (paper Section 2.3). The backbone
// G* is extracted once (epsilon = 2); an inner oracle indexes the compacted
// backbone. A query performs an epsilon-bounded forward BFS from u (local
// answer + entry collection), an epsilon-bounded backward BFS from v (exit
// collection), then probes the inner oracle for any entry -> exit pair —
// which is why SCARAB'd indexes answer queries a few times slower than the
// same index on the full graph (Tables 2/3: GL* vs GL, PT* vs PT).

#ifndef REACH_BASELINES_SCARAB_H_
#define REACH_BASELINES_SCARAB_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/backbone.h"
#include "core/oracle.h"
#include "graph/digraph.h"

namespace reach {

/// Wraps any oracle factory into its SCARAB-scaled variant.
class ScarabOracle : public ReachabilityOracle {
 public:
  using InnerFactory = std::function<std::unique_ptr<ReachabilityOracle>()>;

  /// `display_name` is the table column ("GL*", "PT*").
  ScarabOracle(std::string display_name, InnerFactory inner_factory,
               BackboneOptions backbone_options = {})
      : display_name_(std::move(display_name)),
        inner_factory_(std::move(inner_factory)),
        backbone_options_(backbone_options) {}

 protected:
  Status BuildIndex(const Dag& dag) override;

 public:
  bool Reachable(Vertex u, Vertex v) const override;

  std::string name() const override { return display_name_; }
  /// The epsilon-bounded local searches reuse per-query scratch.
  bool ConcurrentQuerySafe() const override { return false; }
  uint64_t IndexSizeIntegers() const override;
  uint64_t IndexSizeBytes() const override;

  size_t backbone_size() const { return backbone_vertices_.size(); }
  const ReachabilityOracle& inner() const { return *inner_; }

 private:
  std::string display_name_;
  InnerFactory inner_factory_;
  BackboneOptions backbone_options_;

  Digraph graph_;
  std::vector<bool> is_backbone_;
  std::vector<Vertex> backbone_vertices_;
  // Original backbone vertex id -> dense id in the compacted inner graph.
  std::vector<uint32_t> compact_id_;
  std::unique_ptr<ReachabilityOracle> inner_;

  mutable std::vector<uint32_t> mark_;
  mutable uint32_t epoch_ = 0;
  mutable std::vector<Vertex> queue_;
  mutable std::vector<uint32_t> depth_;
  mutable std::vector<uint32_t> entries_;
  mutable std::vector<uint32_t> exits_;
};

}  // namespace reach

#endif  // REACH_BASELINES_SCARAB_H_
