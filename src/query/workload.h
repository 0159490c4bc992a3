// Reachability query workloads (paper Section 6.1): the *equal* workload has
// roughly 50% positive and 50% negative queries; the *random* workload draws
// uniform random pairs (mostly negative on sparse DAGs). Workloads are
// deterministic given the seed.

#ifndef REACH_QUERY_WORKLOAD_H_
#define REACH_QUERY_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "core/oracle.h"
#include "graph/digraph.h"
#include "util/status.h"

namespace reach {

/// A reachability query with its ground-truth answer.
struct Query {
  Vertex from;
  Vertex to;
  bool reachable;
};

struct WorkloadOptions {
  size_t num_queries = 100000;  // The paper times 100,000 queries.
  uint64_t seed = 7;
  /// Maximum length of the random forward walks that produce positives.
  uint32_t max_walk_length = 64;
};

/// A generated batch of queries.
struct Workload {
  std::vector<Query> queries;

  size_t PositiveCount() const;
};

/// Equal workload: 50% positives (random forward walks of random length,
/// guaranteed reachable) and 50% negatives (random pairs u != v verified
/// against `truth`, which must already be a correct oracle for `dag`).
/// Negatives are rejection-sampled with a bounded number of draws, so a
/// graph with no unreachable pair u != v (one vertex, or a cyclic input)
/// yields a short workload instead of spinning; a graph with no vertex
/// yields an empty one.
Workload MakeEqualWorkload(const Digraph& dag, const ReachabilityOracle& truth,
                           const WorkloadOptions& options);

/// Random workload: uniform random pairs labeled via `truth`; empty when
/// `dag` has no vertex.
Workload MakeRandomWorkload(const Digraph& dag,
                            const ReachabilityOracle& truth,
                            const WorkloadOptions& options);

/// Runs every query against `oracle`, returning false on the first wrong
/// answer (used by integration tests); `mismatch` receives the bad query.
bool VerifyWorkload(const ReachabilityOracle& oracle, const Workload& workload,
                    Query* mismatch);

}  // namespace reach

#endif  // REACH_QUERY_WORKLOAD_H_
