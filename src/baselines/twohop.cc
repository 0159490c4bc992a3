#include "baselines/twohop.h"

#include <algorithm>
#include <queue>

#include "graph/transitive_closure.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace reach {

namespace {

struct Candidate {
  double ratio;
  Vertex hop;

  bool operator<(const Candidate& other) const {
    return ratio < other.ratio;  // Max-heap on ratio.
  }
};

/// in-side endpoints per parallel task of the gain/commit sweeps. One
/// endpoint costs a full closure-row copy + subtract + popcount, so small
/// chunks already carry real work.
constexpr size_t kEndpointGrain = 16;
/// Below this endpoint count a sweep runs inline on one thread.
constexpr size_t kEndpointParallelCutoff = 2 * kEndpointGrain;

/// The worker count of a sweep over `endpoints` endpoints.
int SweepThreads(size_t endpoints, int threads) {
  return endpoints >= kEndpointParallelCutoff ? threads : 1;
}

}  // namespace

Status TwoHopOracle::BuildIndex(const Dag& dag) {
  Timer timer;
  const int threads = build_threads();
  const size_t n = dag.num_vertices();
  // One row partition: the label inserts run on this thread (below).
  LabelBuilder builder(n);

  // Materialize the descendant and ancestor closures (the structural cost
  // of 2HOP).
  const size_t tc_budget =
      budget_.max_index_integers > 0 ? budget_.max_index_integers * 64 : 0;
  auto tc = TransitiveClosure::Compute(dag, tc_budget, threads);
  if (!tc.ok()) return tc.status();
  auto rtc = TransitiveClosure::Compute(
      dag, tc_budget, threads, TransitiveClosure::Direction::kAncestors);
  if (!rtc.ok()) return rtc.status();

  // covered[u] marks targets v such that pair (u, v) is already covered.
  // Reflexive pairs participate like any other Cov(v) member (they force
  // the self-hop entries), keeping the size metric comparable with DL/HL.
  std::vector<Bitset> covered(n, Bitset(n));

  // Row cardinalities, swept once in parallel (pure slot writes over
  // immutable closure rows).
  std::vector<uint64_t> out_count(n, 0);
  std::vector<uint64_t> in_count(n, 0);
  ParallelFor(0, n, 256, threads, [&](size_t v) {
    out_count[v] = tc->Row(v).Count();
    in_count[v] = rtc->Row(v).Count();
  });
  uint64_t uncovered = 0;
  for (Vertex u = 0; u < n; ++u) uncovered += out_count[u];

  // Lazy greedy: keys are optimistic (gains only shrink as pairs get
  // covered), so a popped candidate whose recomputed ratio still beats the
  // next key is safely committed. Heap pushes stay sequential: equal-ratio
  // candidates tie-break by insertion order, which must not depend on the
  // thread count.
  std::priority_queue<Candidate> heap;
  for (Vertex w = 0; w < n; ++w) {
    const uint64_t in_size = in_count[w];
    const uint64_t out_size = out_count[w];
    const double bound = static_cast<double>(in_size) * out_size /
                         static_cast<double>(in_size + out_size);
    heap.push(Candidate{bound, w});
  }

  std::vector<Vertex> in_side;
  std::vector<Vertex> profitable_in;
  std::vector<Vertex> profitable_out;
  Bitset out_mask(n);
  // Per-worker scratch for the endpoint sweeps: a row buffer and a partial
  // out-side mask each; per-chunk gains and profitable lists merge in chunk
  // order, so the result is the same for every thread count.
  const size_t num_workers = static_cast<size_t>(std::max(threads, 1));
  std::vector<Bitset> worker_scratch(num_workers);
  std::vector<Bitset> worker_mask(num_workers);
  std::vector<uint8_t> mask_used(num_workers, 0);
  std::vector<uint64_t> chunk_gain;
  std::vector<std::vector<Vertex>> chunk_profit;
  while (uncovered > 0 && !heap.empty()) {
    Candidate top = heap.top();
    heap.pop();
    if (budget_.max_seconds > 0 &&
        timer.ElapsedSeconds() > budget_.max_seconds) {
      return Status::ResourceExhausted("2HOP set-cover over time budget");
    }

    const Vertex w = top.hop;
    // Recompute the exact gain of hop w, the in-side endpoints that still
    // profit, and the union mask of out-side endpoints with uncovered pairs.
    in_side.clear();
    rtc->Row(w).AppendSetBits(&in_side);
    profitable_in.clear();
    out_mask.Clear();
    const size_t num_chunks =
        (in_side.size() + kEndpointGrain - 1) / kEndpointGrain;
    chunk_gain.assign(num_chunks, 0);
    if (chunk_profit.size() < num_chunks) chunk_profit.resize(num_chunks);
    std::fill(mask_used.begin(), mask_used.end(), 0);
    ParallelChunks(
        0, in_side.size(), kEndpointGrain,
        SweepThreads(in_side.size(), threads), [&](const ChunkInfo& chunk) {
          Bitset& row = worker_scratch[chunk.worker];
          Bitset& mask = worker_mask[chunk.worker];
          if (mask.size() != n) mask = Bitset(n);
          mask_used[chunk.worker] = 1;
          std::vector<Vertex>& profit = chunk_profit[chunk.index];
          profit.clear();
          uint64_t local_gain = 0;
          for (size_t i = chunk.begin; i < chunk.end; ++i) {
            const Vertex u = in_side[i];
            // Uncovered pairs (u, v), v in TC(w): TC(w) & ~covered[u].
            row = tc->Row(w);
            row.SubtractWith(covered[u]);
            const uint64_t from_u = row.Count();
            if (from_u > 0) {
              local_gain += from_u;
              profit.push_back(u);
              mask.UnionWith(row);
            }
          }
          chunk_gain[chunk.index] = local_gain;
        });
    uint64_t gain = 0;
    for (size_t c = 0; c < num_chunks; ++c) {
      gain += chunk_gain[c];
      profitable_in.insert(profitable_in.end(), chunk_profit[c].begin(),
                           chunk_profit[c].end());
    }
    for (size_t worker = 0; worker < num_workers; ++worker) {
      if (!mask_used[worker]) continue;
      out_mask.UnionWith(worker_mask[worker]);
      worker_mask[worker].Clear();  // Ready for the next pop.
    }
    if (gain == 0) continue;  // Fully covered elsewhere; drop the hop.
    const uint64_t in_size = in_count[w];
    const uint64_t out_size = out_count[w];
    const double exact =
        static_cast<double>(gain) / static_cast<double>(in_size + out_size);
    if (!heap.empty() && exact < heap.top().ratio) {
      heap.push(Candidate{exact, w});  // Stale; retry later.
      continue;
    }

    // Commit hop w: label only the endpoints with uncovered pairs through w
    // (zero-gain endpoints are peeled away). The label inserts stay on
    // this thread: each is a few nanoseconds against the closure-row work
    // per endpoint. The coverage sweep touches one vertex's covered[u] per
    // element and reduces a plain integer sum, so it fans out without
    // affecting the result.
    profitable_out.clear();
    out_mask.AppendSetBits(&profitable_out);
    for (const Vertex v : profitable_out) builder.InsertIn(v, w);
    for (const Vertex u : profitable_in) builder.InsertOut(u, w);
    const size_t commit_chunks =
        (profitable_in.size() + kEndpointGrain - 1) / kEndpointGrain;
    chunk_gain.assign(commit_chunks, 0);
    ParallelChunks(0, profitable_in.size(), kEndpointGrain,
                   SweepThreads(profitable_in.size(), threads),
                   [&](const ChunkInfo& chunk) {
                     uint64_t local = 0;
                     for (size_t i = chunk.begin; i < chunk.end; ++i) {
                       const Vertex u = profitable_in[i];
                       local += covered[u].UnionCountNew(tc->Row(w));
                     }
                     chunk_gain[chunk.index] = local;
                   });
    for (const uint64_t newly_covered : chunk_gain) {
      uncovered -= newly_covered;
    }
  }
  SealLabels(std::move(builder));
  return Status::OK();
}

}  // namespace reach
