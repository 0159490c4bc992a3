#include "query/workload.h"

#include "util/rng.h"

namespace reach {

size_t Workload::PositiveCount() const {
  size_t count = 0;
  for (const Query& q : queries) count += q.reachable ? 1 : 0;
  return count;
}

namespace {

// Uniform random vertex.
Vertex RandomVertex(const Digraph& dag, Rng* rng) {
  return static_cast<Vertex>(rng->Uniform(dag.num_vertices()));
}

// Random forward walk from a random non-sink source: every visited vertex
// is reachable from the source by construction, and acyclicity guarantees
// the walk ends strictly away from the source.
Query RandomPositive(const Digraph& dag, const std::vector<Vertex>& sources,
                     Rng* rng, uint32_t max_walk) {
  const Vertex from = sources[rng->Uniform(sources.size())];
  Vertex v = from;
  const uint32_t steps = 1 + static_cast<uint32_t>(rng->Uniform(max_walk));
  for (uint32_t i = 0; i < steps; ++i) {
    auto nbrs = dag.OutNeighbors(v);
    if (nbrs.empty()) break;
    v = nbrs[rng->Uniform(nbrs.size())];
  }
  return Query{from, v, true};
}

}  // namespace

Workload MakeEqualWorkload(const Digraph& dag, const ReachabilityOracle& truth,
                           const WorkloadOptions& options) {
  Rng rng(options.seed);
  Workload workload;
  if (dag.num_vertices() == 0) return workload;
  workload.queries.reserve(options.num_queries);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < dag.num_vertices(); ++v) {
    if (dag.OutDegree(v) > 0) sources.push_back(v);
  }
  const size_t positives = sources.empty() ? 0 : options.num_queries / 2;
  for (size_t i = 0; i < positives; ++i) {
    workload.queries.push_back(
        RandomPositive(dag, sources, &rng, options.max_walk_length));
  }
  // Negatives: rejection-sample random pairs until unreachable. In a DAG
  // with n >= 2 at least a quarter of the draws succeed, so the bound, far
  // above the expected draw count, only stops graphs with no negative.
  const size_t max_attempts = 64 * options.num_queries + 1024;
  for (size_t attempts = 0; workload.queries.size() < options.num_queries &&
                            attempts < max_attempts;
       ++attempts) {
    const Vertex u = RandomVertex(dag, &rng);
    const Vertex v = RandomVertex(dag, &rng);
    if (u == v) continue;
    if (!truth.Reachable(u, v)) {
      workload.queries.push_back(Query{u, v, false});
    }
  }
  // Deterministic shuffle so positives and negatives interleave.
  Shuffle(&workload.queries, &rng);
  return workload;
}

Workload MakeRandomWorkload(const Digraph& dag,
                            const ReachabilityOracle& truth,
                            const WorkloadOptions& options) {
  Rng rng(options.seed);
  Workload workload;
  if (dag.num_vertices() == 0) return workload;
  workload.queries.reserve(options.num_queries);
  for (size_t i = 0; i < options.num_queries; ++i) {
    const Vertex u = RandomVertex(dag, &rng);
    const Vertex v = RandomVertex(dag, &rng);
    workload.queries.push_back(Query{u, v, truth.Reachable(u, v)});
  }
  return workload;
}

bool VerifyWorkload(const ReachabilityOracle& oracle, const Workload& workload,
                    Query* mismatch) {
  for (const Query& q : workload.queries) {
    if (oracle.Reachable(q.from, q.to) != q.reachable) {
      if (mismatch != nullptr) *mismatch = q;
      return false;
    }
  }
  return true;
}

}  // namespace reach
