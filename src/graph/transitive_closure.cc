#include "graph/transitive_closure.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace reach {

namespace {

/// Rows per parallel task: one row union is already O(n/64 * out-degree)
/// words of work, so small chunks keep the strata load-balanced.
constexpr size_t kRowGrain = 8;

}  // namespace

StatusOr<TransitiveClosure> TransitiveClosure::Compute(const Dag& dag,
                                                       size_t max_bytes,
                                                       int threads,
                                                       Direction direction) {
  const Digraph& g = dag.graph();
  const size_t n = g.num_vertices();
  const size_t bytes = n * ((n + 63) / 64) * 8;
  if (max_bytes != 0 && bytes > max_bytes) {
    return Status::ResourceExhausted(
        "transitive closure would need " + std::to_string(bytes) + " bytes");
  }
  TransitiveClosure tc;
  tc.rows_.assign(n, Bitset(n));
  // DP over depth strata. depth[v] = longest path from v to a sink (from
  // a source to v, for ancestors); every neighbour a row ORs in is strictly
  // shallower, so once all rows of depth < d are complete the rows at depth
  // d are independent of each other.
  const bool descendants = direction == Direction::kDescendants;
  const std::vector<uint32_t> depth =
      dag.LongestPathLevels(/*to_sinks=*/descendants);
  const uint32_t max_depth =
      n == 0 ? 0 : *std::max_element(depth.begin(), depth.end());
  // Bucket by depth (counting sort keeps vertex order inside a stratum
  // deterministic, though row content is order-independent anyway).
  std::vector<size_t> bucket_start(max_depth + 2, 0);
  for (Vertex v = 0; v < n; ++v) ++bucket_start[depth[v] + 1];
  for (size_t d = 1; d < bucket_start.size(); ++d) {
    bucket_start[d] += bucket_start[d - 1];
  }
  std::vector<Vertex> by_depth(n);
  std::vector<size_t> cursor(bucket_start.begin(), bucket_start.end() - 1);
  for (Vertex v = 0; v < n; ++v) by_depth[cursor[depth[v]]++] = v;

  for (uint32_t d = 0; d <= max_depth; ++d) {
    ParallelFor(bucket_start[d], bucket_start[d + 1], kRowGrain, threads,
                [&](size_t i) {
                  const Vertex v = by_depth[i];
                  Bitset& row = tc.rows_[v];
                  row.Set(v);
                  for (Vertex w : descendants ? g.OutNeighbors(v)
                                              : g.InNeighbors(v)) {
                    row.UnionWith(tc.rows_[w]);
                  }
                });
  }
  return tc;
}

uint64_t TransitiveClosure::TotalPairs() const {
  uint64_t total = 0;
  for (const Bitset& row : rows_) total += row.Count();
  return total;
}

std::vector<Vertex> TransitiveClosure::ReachableSet(Vertex v) const {
  std::vector<Vertex> out;
  rows_[v].AppendSetBits(&out);
  return out;
}

}  // namespace reach
