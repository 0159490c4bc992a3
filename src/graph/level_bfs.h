// Level-synchronous pruned BFS with a deterministic merge and
// direction-optimizing expansion — the fork-join traversal of Pruned
// Landmark's landmark loop. (Distribution Labeling parallelizes across hops
// instead: core/distribution_labeling.cc.)
//
// A classic pruned BFS interleaves three effects while scanning its queue:
// it *marks* newly discovered vertices, *prunes* the ones the current labels
// already cover, and *admits* the rest (labels them and expands them). The
// level-synchronous form splits each depth into two phases:
//
//   1. Parallel scan: frontier slots (top-down) or vertex-range chunks
//      (bottom-up) independently list newly discovered vertices and evaluate
//      the prune predicate for them. This phase writes only per-slot
//      candidate buffers.
//   2. Sequential merge: candidates are replayed in slot order, deduplicated
//      via the mark array, and admitted or pruned.
//
// Direction optimization (Beamer et al., SC'12; the PASGAL BFS uses the
// same switch): when the frontier's outgoing edge count grows past a
// fraction of the edges still touching unvisited vertices, the level flips
// to bottom-up — every unvisited vertex scans its own parents for a
// frontier member (bitmap test) instead of the frontier pushing to
// children. Dense middle levels of the BFS stop re-touching already-marked
// vertices once per incoming edge; the scan also short-circuits at the
// first frontier parent. When the frontier thins below n / kBottomUpBeta
// the traversal drops back to top-down.
//
// Determinism contract (build_determinism_test pins it end to end):
//
//   * The direction decision reads only level-aggregate quantities —
//     frontier size, frontier degree sum, unexplored degree sum — which are
//     identical for every thread count, so all runs take the same
//     directions at the same depths.
//   * Per depth, the *sets* of marked, pruned, and admitted vertices are
//     identical to the classic sequential loop; prune(v, depth) is a pure
//     function of state frozen at the previous depth (see the aliasing
//     requirement below).
//   * Within a depth, admission ORDER depends on the direction: top-down
//     admits in classic discovery order, bottom-up in ascending vertex id
//     (chunks merge in chunk order). Call sites must therefore make
//     admission payloads within-depth order-invariant. PL qualifies: an
//     admission appends one level-invariant (key, depth) entry to the
//     admitted vertex's *own* label, so label bytes cannot see the order
//     in which same-depth vertices were admitted.
//
// The prune predicate may run concurrently and must be read-only with
// respect to same-depth admissions for *other* vertices (PL qualifies: its
// prune reads Lout(hop)/Lin(u), and an admission at the same depth only
// touches the admitted vertex's own label).

#ifndef REACH_GRAPH_LEVEL_BFS_H_
#define REACH_GRAPH_LEVEL_BFS_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "util/thread_pool.h"

namespace reach {

/// Reusable buffers for RunPrunedLevelBfs; keep one per traversal owner to
/// amortize allocations across hops.
struct LevelBfsScratch {
  std::vector<Vertex> frontier;
  std::vector<Vertex> next;
  // candidates[slot] = (vertex, prune(vertex)) pairs found by frontier slot
  // `slot` (top-down, adjacency order) or vertex chunk `slot` (bottom-up,
  // ascending id order).
  std::vector<std::vector<std::pair<Vertex, bool>>> candidates;
  // Bitmap of the current frontier, rebuilt per bottom-up level for the
  // O(1) "is this parent on the frontier?" membership test.
  std::vector<uint64_t> frontier_bits;
};

/// Frontier slots per parallel task (top-down).
inline constexpr size_t kLevelBfsGrain = 64;
/// Below this frontier size a top-down level is expanded sequentially: the
/// fork-join overhead would exceed the scan itself.
inline constexpr size_t kLevelBfsParallelCutoff = 2 * kLevelBfsGrain;
/// Vertices per bottom-up scan chunk. Chunk boundaries are fixed by n, not
/// by the thread count, so the merge replays chunks in the same (ascending
/// id) order for every run.
inline constexpr size_t kBottomUpChunk = 512;
/// Switch top-down -> bottom-up when frontier_edges * kBottomUpAlpha >
/// unexplored_edges (Beamer's alpha), and back when frontier size falls
/// under num_vertices / kBottomUpBeta. The classic (14, 24) settings carry
/// over: pruned traversals only shrink frontiers relative to plain BFS, so
/// the switch simply fires less often on heavily pruned hops.
inline constexpr uint64_t kBottomUpAlpha = 14;
inline constexpr uint64_t kBottomUpBeta = 24;

/// Pruned BFS from `source` over `g` (forward or reverse edges), marking
/// visits in `(*mark)[v] == epoch` (caller bumps `epoch` per traversal, as
/// in the epoch-mark idiom used across this library).
///
/// `prune(v, depth)` decides whether a newly discovered vertex is covered
/// already; it may run concurrently and must be read-only (see the file
/// comment for the exact aliasing requirement). `admit(v, depth)` runs
/// sequentially, for the source and every non-pruned vertex, in an order
/// that is deterministic for any thread count but only set-stable within a
/// depth (file comment); admitted vertices are expanded, pruned ones are
/// marked but neither labeled nor expanded.
template <typename PruneFn, typename AdmitFn>
void RunPrunedLevelBfs(const Digraph& g, Vertex source, bool forward,
                       int threads, std::vector<uint32_t>* mark,
                       uint32_t epoch, PruneFn&& prune, AdmitFn&& admit,
                       LevelBfsScratch* scratch) {
  const size_t n = g.num_vertices();
  // Degree of `v` counted over the edges a top-down expansion would scan.
  auto expand_degree = [&](Vertex v) {
    return forward ? g.OutDegree(v) : g.InDegree(v);
  };
  // Degree of `v` counted over the edges a bottom-up scan of `v` reads —
  // the reverse side. Summed over unvisited vertices this is Beamer's m_u.
  auto scan_degree = [&](Vertex v) {
    return forward ? g.InDegree(v) : g.OutDegree(v);
  };

  (*mark)[source] = epoch;
  admit(source, 0);
  // Every edge's head-side endpoint is subtracted at most once (when its
  // vertex is first marked), so this never underflows.
  uint64_t unexplored_edges = g.num_edges() - scan_degree(source);

  std::vector<Vertex>& frontier = scratch->frontier;
  std::vector<Vertex>& next = scratch->next;
  frontier.clear();
  frontier.push_back(source);

  bool bottom_up = false;
  for (uint32_t depth = 1; !frontier.empty(); ++depth) {
    next.clear();
    // Direction decision. Reads only aggregates that are identical for
    // every thread count — never anything order- or partition-dependent.
    uint64_t frontier_edges = 0;
    for (const Vertex v : frontier) frontier_edges += expand_degree(v);
    if (!bottom_up) {
      bottom_up = frontier_edges * kBottomUpAlpha > unexplored_edges &&
                  frontier.size() > 1;
    } else if (frontier.size() * kBottomUpBeta < n) {
      bottom_up = false;
    }

    if (bottom_up) {
      // Bottom-up level: rebuild the frontier bitmap, then scan every
      // unvisited vertex for a parent on the frontier. Only *admitted*
      // vertices ever enter `frontier`, so the bitmap test is exactly the
      // "parent expanded me" check of the top-down form.
      auto& bits = scratch->frontier_bits;
      bits.assign((n + 63) / 64, 0);
      for (const Vertex v : frontier) {
        bits[v >> 6] |= uint64_t{1} << (v & 63);
      }
      auto has_frontier_parent = [&](Vertex w) {
        auto parents = forward ? g.InNeighbors(w) : g.OutNeighbors(w);
        for (const Vertex p : parents) {
          if ((bits[p >> 6] >> (p & 63)) & 1) return true;
        }
        return false;
      };
      const size_t num_chunks = (n + kBottomUpChunk - 1) / kBottomUpChunk;
      if (threads > 1 && n >= kLevelBfsParallelCutoff) {
        auto& candidates = scratch->candidates;
        if (candidates.size() < num_chunks) candidates.resize(num_chunks);
        ParallelFor(0, num_chunks, 1, threads, [&](size_t chunk) {
          auto& found = candidates[chunk];
          found.clear();
          const size_t lo = chunk * kBottomUpChunk;
          const size_t hi = std::min(n, lo + kBottomUpChunk);
          for (size_t w = lo; w < hi; ++w) {
            const Vertex v = static_cast<Vertex>(w);
            if ((*mark)[v] == epoch) continue;
            if (!has_frontier_parent(v)) continue;
            found.emplace_back(v, prune(v, depth));
          }
        });
        // Merge in chunk order == ascending id order. Each vertex appears
        // in exactly one chunk, so no dedup pass is needed.
        for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
          for (const auto& [w, pruned] : candidates[chunk]) {
            (*mark)[w] = epoch;
            unexplored_edges -= scan_degree(w);
            if (pruned) continue;
            admit(w, depth);
            next.push_back(w);
          }
        }
      } else {
        for (size_t w = 0; w < n; ++w) {
          const Vertex v = static_cast<Vertex>(w);
          if ((*mark)[v] == epoch) continue;
          if (!has_frontier_parent(v)) continue;
          (*mark)[v] = epoch;
          unexplored_edges -= scan_degree(v);
          if (prune(v, depth)) continue;
          admit(v, depth);
          next.push_back(v);
        }
      }
    } else if (threads > 1 && frontier.size() >= kLevelBfsParallelCutoff) {
      // Phase 1: per-slot candidate lists. A vertex adjacent to several
      // frontier slots is evaluated by each of them; the merge keeps only
      // the first occurrence, exactly like the sequential mark check.
      auto& candidates = scratch->candidates;
      if (candidates.size() < frontier.size()) {
        candidates.resize(frontier.size());
      }
      ParallelFor(0, frontier.size(), kLevelBfsGrain, threads,
                  [&](size_t slot) {
                    auto& found = candidates[slot];
                    found.clear();
                    const Vertex v = frontier[slot];
                    auto nbrs =
                        forward ? g.OutNeighbors(v) : g.InNeighbors(v);
                    for (Vertex w : nbrs) {
                      if ((*mark)[w] == epoch) continue;
                      found.emplace_back(w, prune(w, depth));
                    }
                  });
      // Phase 2: deterministic merge in slot order.
      for (size_t slot = 0; slot < frontier.size(); ++slot) {
        for (const auto& [w, pruned] : candidates[slot]) {
          if ((*mark)[w] == epoch) continue;
          (*mark)[w] = epoch;
          unexplored_edges -= scan_degree(w);
          if (pruned) continue;
          admit(w, depth);
          next.push_back(w);
        }
      }
    } else {
      for (const Vertex v : frontier) {
        auto nbrs = forward ? g.OutNeighbors(v) : g.InNeighbors(v);
        for (Vertex w : nbrs) {
          if ((*mark)[w] == epoch) continue;
          (*mark)[w] = epoch;
          unexplored_edges -= scan_degree(w);
          if (prune(w, depth)) continue;
          admit(w, depth);
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
}

}  // namespace reach

#endif  // REACH_GRAPH_LEVEL_BFS_H_
