// Hierarchical Labeling (paper Section 4, Algorithm 1). After the recursive
// backbone decomposition (Definition 2), the core graph is labeled first and
// the remaining levels are labeled top-down: a level-i vertex v gets
//
//   Lout(v) = N^{ceil(eps/2)}_out(v | Gi)  ∪  U_{u in B^eps_out(v|Gi)} Lout(u)
//   Lin (v) = N^{ceil(eps/2)}_in (v | Gi)  ∪  U_{u in B^eps_in (v|Gi)} Lin (u)
//
// (Formulas 4/5), where the backbone sets B collect the first backbone
// vertices hit by an eps-bounded BFS. With epsilon = 1 this is the TF-label
// scheme, which the paper identifies as a special case of HL.

#ifndef REACH_CORE_HIERARCHICAL_LABELING_H_
#define REACH_CORE_HIERARCHICAL_LABELING_H_

#include <cassert>
#include <memory>
#include <string>

#include "core/hierarchy.h"
#include "core/labeling_oracle.h"

namespace reach {

/// The core graph Gh is labeled by Distribution Labeling restricted to the
/// core (paper Section 4.1, "Labeling Core Graph", allows any complete 2-hop
/// labeler there): it is complete (Thm. 3) and has no set-cover dependency.
struct HierarchicalOptions {
  HierarchyOptions hierarchy;
};

/// The HL reachability oracle. Hop keys are vertex ids.
class HierarchicalLabelingOracle : public LabelingOracle {
 public:
  explicit HierarchicalLabelingOracle(HierarchicalOptions options = {})
      : options_(options) {}

  /// Convenience factory for the TF-label configuration (epsilon = 1).
  static HierarchicalOptions TfLabelOptions() {
    HierarchicalOptions options;
    options.hierarchy.backbone.epsilon = 1;
    return options;
  }

  std::string name() const override {
    return options_.hierarchy.backbone.epsilon == 1 ? "TF" : "HL";
  }

  /// The decomposition (valid after Build, NOT after LoadMapped — a snapshot
  /// carries only query state); exposed for tests and examples. Build
  /// releases its level graphs: the level sets, LevelOf, num_levels and
  /// epsilon stay, and LevelGraph asserts.
  const Hierarchy& hierarchy() const {
    assert(hierarchy_ != nullptr &&
           "hierarchy() is only valid after Build(), not LoadMapped()");
    return *hierarchy_;
  }

 protected:
  Status BuildIndex(const Dag& dag) override;

 private:
  HierarchicalOptions options_;
  std::unique_ptr<Hierarchy> hierarchy_;
};

}  // namespace reach

#endif  // REACH_CORE_HIERARCHICAL_LABELING_H_
