#include "core/distribution_labeling.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <new>
#include <span>
#include <utility>

#include "core/backbone.h"
#include "util/mapped_blob.h"
#include "util/rng.h"
#include "util/sorted_ops.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace reach {

namespace {

/// Largest hop batch. Batch sizes ramp 1, 2, 4, ... up to this cap: the
/// first hops (the hubs) have the longest candidate lists and the most
/// in-batch overlap, so their batches stay small, while the long tail of
/// tiny searches needs wide batches to keep every worker busy. A wider cap
/// holds more candidates at once; on the arxiv stand-in at 4 threads, 256
/// labels within the noise of 1024 and a little faster than 64.
constexpr size_t kMaxHopBatch = 256;

constexpr uint32_t kNotInBatch = UINT32_MAX;

/// The rank sort places members by a counting sort over their degree
/// product clamped to [1, kRankGroups - 1] (within an octave); only ranks
/// from kRankGroups - 1 up share a group and need comparisons. On the
/// 1,001,000-vertex large_smoke graph at 2 threads (4-vCPU x86-64 VM) it
/// takes about 10 ms where one std::sort by (octave, rank, id) took 130 to
/// 170 ms, a fifth of the whole DL build.
constexpr uint64_t kRankGroups = 64;

/// Allocator of the per-worker scratch. Candidate buffers grow to
/// megabytes on whichever thread runs a hop and die when the distribution
/// ends; on the malloc heap that churn stays resident (per-thread arenas, a
/// raised mmap threshold) and, on the arxiv stand-in at 4 threads, grew
/// peak RSS by a seventh over five back-to-back builds. Fresh pages go back
/// to the kernel when freed.
template <typename T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <typename U>
  explicit PageAllocator(const PageAllocator<U>&) {}
  T* allocate(size_t count) {
    std::byte* data = AllocatePages(count * sizeof(T));
    if (data == nullptr) throw std::bad_alloc();
    return reinterpret_cast<T*>(data);
  }
  void deallocate(T* data, size_t count) {
    FreePages(reinterpret_cast<std::byte*>(data), count * sizeof(T));
  }
  bool operator==(const PageAllocator&) const { return true; }
};

template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;
using CandidateBuffer = PageVector<Vertex>;

/// A candidate list: [begin, end) of a worker-owned buffer. Offsets, not
/// pointers, because the buffer may still grow while the list is recorded.
struct ListRef {
  const CandidateBuffer* buffer = nullptr;
  size_t begin = 0;
  size_t end = 0;

  std::span<const Vertex> view() const {
    return {buffer->data() + begin, end - begin};
  }
};

/// One hop of the current batch. Neighbouring hops are written by
/// different workers, hence the cache-line alignment.
struct alignas(64) BatchHop {
  // Search output, routed by append partition: rev[p] holds the Lout
  // candidates (reverse BFS) and fwd[p] the Lin candidates (forward BFS)
  // whose rows partition p owns, in BFS order.
  std::vector<ListRef> rev;
  std::vector<ListRef> fwd;
  // Batch positions k < j (j = this hop) whose forward list holds this hop
  // (they may make Lout entries redundant) and whose reverse list holds it
  // (Lin entries).
  std::vector<uint32_t> out_witnesses;
  std::vector<uint32_t> in_witnesses;
};

/// Scratch owned by one ParallelChunks participant, padded so that two
/// workers never write the same cache line (vector headers included).
struct alignas(64) HopWorker {
  // Epoch marks over all n vertices (BFS visits, witnessed rows) and over
  // all n keys (the hop's own label side, for MarkedIntersects).
  PageVector<uint32_t> mark;
  PageVector<uint32_t> key_mark;
  uint32_t epoch = 0;
  CandidateBuffer queue;                // The BFS queue of the current search.
  std::vector<CandidateBuffer> routed;  // Search output, one per partition.
  // (later batch position, searching batch position) of every batch hop a
  // search admitted, per direction.
  std::vector<std::pair<uint32_t, uint32_t>> fwd_hits;
  std::vector<std::pair<uint32_t, uint32_t>> rev_hits;
  // This worker's probes in the current batch: the candidates they
  // admitted and pruned, and the row keys they read.
  uint64_t admitted = 0;
  uint64_t pruned = 0;
  uint64_t row_keys_read = 0;

  /// Moves the batch's probe counts into `stats`.
  void FlushProbes(BuildStats* stats) {
    stats->probes += std::exchange(admitted, 0) + pruned;
    stats->pruned += std::exchange(pruned, 0);
    stats->row_keys_read += std::exchange(row_keys_read, 0);
  }

  uint32_t NextEpoch(size_t n) {
    if (mark.empty()) {
      mark.assign(n, 0);
      key_mark.assign(n, 0);
    }
    if (++epoch == 0) {  // Wrapped: stale marks could alias. Start over.
      std::fill(mark.begin(), mark.end(), 0);
      std::fill(key_mark.begin(), key_mark.end(), 0);
      epoch = 1;
    }
    return epoch;
  }
};

/// Pruned BFS from `hop` (reverse: Lout candidates, forward: Lin
/// candidates) against the labels as they stood when the batch began.
/// A vertex is pruned, and not expanded, when the labels already certify
/// it reaches `hop` (reverse) or is reached from it (forward) through an
/// earlier batch's hop (Algorithm 2, Lines 4 and 10). The probe marks the
/// hop's own side once and scans each candidate's row against the marks
/// (MarkedIntersects). The hop itself is admitted unpruned: in a DAG its
/// own Lout and Lin cannot intersect. Returns the admitted vertices, in
/// BFS order, as the worker's queue. The direction is a template argument
/// so the loop carries no per-candidate direction branch: that pays for
/// the probe counts, which cost the search about 2% at one thread on the
/// arxiv stand-in under a runtime direction.
template <bool forward>
std::span<const Vertex> SearchHop(const Digraph& g,
                                  const LabelBuilder& labels, Vertex hop,
                                  HopWorker* worker) {
  CandidateBuffer& queue = worker->queue;
  PageVector<uint32_t>& mark = worker->mark;
  const uint32_t epoch = worker->NextEpoch(g.num_vertices());
  const std::span<const uint32_t> hop_side =
      forward ? labels.Out(hop) : labels.In(hop);
  for (const uint32_t key : hop_side) worker->key_mark[key] = epoch;
  queue.clear();
  mark[hop] = epoch;
  queue.push_back(hop);
  for (size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    for (const Vertex u : forward ? g.OutNeighbors(v) : g.InNeighbors(v)) {
      if (mark[u] == epoch) continue;
      mark[u] = epoch;
      if (MarkedIntersects(forward ? labels.In(u) : labels.Out(u), hop_side,
                           worker->key_mark.data(), epoch,
                           &worker->row_keys_read)) {
        ++worker->pruned;
        continue;
      }
      queue.push_back(u);
    }
  }
  // The hop itself was admitted unprobed.
  worker->admitted += queue.size() - 1;
  return queue;
}

/// Appends `key` through `insert` to every row of `part` in hop j's
/// `side` lists, except the rows that a witness of j holds in the same
/// side: those entries are redundant (the cleanup). A row's witnesses are
/// in its own partition's lists, so the partition reads nothing else.
template <typename Insert>
void AppendUnwitnessed(const std::vector<BatchHop>& batch, size_t j,
                       std::vector<ListRef> BatchHop::*side,
                       const std::vector<uint32_t>& witnesses, size_t part,
                       size_t n, HopWorker* worker, Insert insert) {
  const std::span<const Vertex> list = (batch[j].*side)[part].view();
  if (witnesses.empty()) {
    for (const Vertex v : list) insert(v);
    return;
  }
  const uint32_t epoch = worker->NextEpoch(n);
  for (const uint32_t k : witnesses) {
    for (const Vertex v : (batch[k].*side)[part].view()) {
      worker->mark[v] = epoch;
    }
  }
  for (const Vertex v : list) {
    if (worker->mark[v] != epoch) insert(v);
  }
}

/// HyperLogLog registers per vertex behind kCoverPerCost, one byte each.
/// Measured at 16, 32 and 64 (docs/ARCHITECTURE.md): over 16, 32 and 64
/// cut the cit-Patents stand-in's DL labels by a further 9% and 12% but
/// grew its HL index by 4% and 6%, and took 1.3x and 2x the order time on
/// the large_smoke graph.
constexpr size_t kSketchRegisters = 16;
constexpr int kSketchIndexBits = std::countr_zero(kSketchRegisters);

using Sketch = std::array<uint8_t, kSketchRegisters>;

/// splitmix64's finalizer: a fixed bijective mix of the vertex id, so the
/// sketches (and the order) need no seed.
uint64_t MixVertex(Vertex v) {
  uint64_t x = v + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The sketch of {v}: the top bits of the hash pick the register, the
/// position of the first set bit below them is its value.
Sketch SingletonSketch(Vertex v) {
  const uint64_t h = MixVertex(v);
  const uint64_t rest = h << kSketchIndexBits;
  Sketch sketch{};
  sketch[h >> (64 - kSketchIndexBits)] = static_cast<uint8_t>(
      std::min(std::countl_zero(rest), 64 - kSketchIndexBits) + 1);
  return sketch;
}

/// acc = max(acc, other), register by register: the sketch of the union.
void MergeSketch(Sketch* acc, const Sketch& other) {
  for (size_t j = 0; j < kSketchRegisters; ++j) {
    (*acc)[j] = std::max((*acc)[j], other[j]);
  }
}

/// Linear counting's m * ln(m / zeros), by the count of zero registers.
/// Most sketches of a sparse graph take it; calling std::log per estimate
/// instead took about twice the estimate time on the large_smoke graph.
const std::array<float, kSketchRegisters + 1> kLinearCounting = [] {
  std::array<float, kSketchRegisters + 1> table{};
  for (size_t zeros = 1; zeros <= kSketchRegisters; ++zeros) {
    table[zeros] = static_cast<float>(
        kSketchRegisters * std::log(static_cast<double>(kSketchRegisters) /
                                    static_cast<double>(zeros)));
  }
  return table;
}();

/// HyperLogLog's estimate, with linear counting for small sets (Flajolet
/// et al. 2007). A 64-bit hash needs no large-range correction.
float EstimateSketch(const Sketch& sketch) {
  constexpr double m = kSketchRegisters;
  constexpr double kAlpha = 0.673;  // HyperLogLog's bias constant at m = 16.
  double sum = 0;
  int zeros = 0;
  for (const uint8_t r : sketch) {
    // 2^-r, exact, built from its exponent field (std::ldexp is a libm
    // call and took several times as long).
    sum += std::bit_cast<double>(uint64_t{1023u - r} << 52);
    zeros += r == 0;
  }
  const double estimate = kAlpha * m * m / sum;
  if (estimate <= 2.5 * m && zeros > 0) return kLinearCounting[zeros];
  return static_cast<float>(estimate);
}

/// Estimates |desc(v)| (`descendants`) or |anc(v)| of every vertex of the
/// DAG, counting v itself. One pass in (reverse) topological order merges
/// each vertex's children's (parents') sketches into its own: O(m * |E|)
/// register work. `sketches` is scratch, one per vertex.
std::vector<float> EstimateClosureSizes(const Dag& dag, bool descendants,
                                        int threads,
                                        PageVector<Sketch>* sketches) {
  const Digraph& g = dag.graph();
  const std::vector<Vertex>& topo = dag.order();
  const size_t n = topo.size();
  for (size_t k = 0; k < n; ++k) {
    const Vertex v = topo[descendants ? n - 1 - k : k];
    Sketch acc = SingletonSketch(v);
    for (const Vertex w :
         descendants ? g.OutNeighbors(v) : g.InNeighbors(v)) {
      MergeSketch(&acc, (*sketches)[w]);
    }
    (*sketches)[v] = acc;
  }
  std::vector<float> estimate(n);
  ParallelFor(0, n, 4096, threads, [&](size_t v) {
    estimate[v] = EstimateSketch((*sketches)[v]);
  });
  return estimate;
}

/// kCoverPerCost's primary key of every member (indexed like `members`):
/// floor(log2(a*d / (a+d))). Empty when the closure is dense: when almost
/// every pair is comparable, a*d / (a+d) sits in the same few octaves for
/// most hops and ranks them worse than the degree product. The go_uniprot
/// stand-in's sketched mean is 0.77, and octaves there made DL's labels
/// 2.1x larger; no other registry stand-in's graph or HL core is above
/// 0.08.
std::vector<int8_t> CoverPerCostOctaves(const Dag& dag,
                                        const std::vector<Vertex>& members,
                                        int threads) {
  // One direction at a time through one register array: m bytes per
  // vertex. Fresh pages, returned to the kernel before the labels grow.
  PageVector<Sketch> sketches(dag.num_vertices());
  const std::vector<float> anc =
      EstimateClosureSizes(dag, /*descendants=*/false, threads, &sketches);
  const std::vector<float> desc =
      EstimateClosureSizes(dag, /*descendants=*/true, threads, &sketches);
  PageVector<Sketch>().swap(sketches);

  double share = 0;
  for (const Vertex v : members) share += anc[v] + desc[v];
  const double size = static_cast<double>(members.size());
  if (share > 0.5 * size * size) return {};

  std::vector<int8_t> octave(members.size());
  ParallelFor(0, members.size(), 4096, threads, [&](size_t i) {
    const Vertex v = members[i];
    // At least 1/2, so a normal float: floor(log2) is its exponent.
    const float price = anc[v] * desc[v] / (anc[v] + desc[v]);
    octave[i] = static_cast<int8_t>(
        static_cast<int>(std::bit_cast<uint32_t>(price) >> 23) - 127);
  });
  return octave;
}

}  // namespace

std::string DistributionOrderName(DistributionOrder order) {
  switch (order) {
    case DistributionOrder::kDegreeProduct:
      return "degree_product";
    case DistributionOrder::kRandom:
      return "random";
    case DistributionOrder::kTopological:
      return "topological";
    case DistributionOrder::kReverseDegreeProduct:
      return "reverse_degree_product";
    case DistributionOrder::kCoverPerCost:
      return "cover_per_cost";
  }
  return "unknown";
}

std::vector<Vertex> ComputeDistributionOrder(
    const Dag& dag, const std::vector<Vertex>& members,
    const DistributionOptions& options, int threads,
    DistributionOrder* applied) {
  const Digraph& g = dag.graph();
  DistributionOrder policy = options.order;
  std::vector<Vertex> order = members;
  std::vector<int8_t> octave;  // Empty: every member in octave 0.
  if (policy == DistributionOrder::kTopological) {
    std::vector<bool> is_member(g.num_vertices(), false);
    for (Vertex v : members) is_member[v] = true;
    order.clear();
    for (Vertex v : dag.order()) {
      if (is_member[v]) order.push_back(v);
    }
  } else if (policy == DistributionOrder::kCoverPerCost) {
    octave = CoverPerCostOctaves(dag, members, threads);
    if (octave.empty()) policy = DistributionOrder::kDegreeProduct;
  }
  if (applied != nullptr) *applied = policy;

  switch (policy) {
    case DistributionOrder::kRandom: {
      Rng rng(options.seed);
      Shuffle(&order, &rng);
      break;
    }
    case DistributionOrder::kTopological:
      break;
    case DistributionOrder::kDegreeProduct:
    case DistributionOrder::kReverseDegreeProduct:
    case DistributionOrder::kCoverPerCost: {
      std::vector<uint64_t> rank(g.num_vertices(), 0);
      ParallelFor(0, members.size(), 4096, threads, [&](size_t i) {
        rank[members[i]] = DegreeProductRank(g, members[i]);
      });
      const bool descending =
          policy != DistributionOrder::kReverseDegreeProduct;
      auto by_rank = [&rank, descending](Vertex a, Vertex b) {
        if (rank[a] != rank[b]) {
          return descending ? rank[a] > rank[b] : rank[a] < rank[b];
        }
        return a < b;
      };
      // Counting sort by (octave, rank clamped below kRankGroups) places
      // most members in one linear pass. It keeps member order within a
      // group, and each group is then put in by_rank order, so the result
      // does not depend on the order of `members`. Its speed does: a group
      // of equal ranks is sorted already when `members` ascend, as DL's
      // do, and only the groups that are not get sorted.
      int top = 0;
      int bottom = 0;
      if (!octave.empty()) {
        const auto [low, high] =
            std::minmax_element(octave.begin(), octave.end());
        top = *high;
        bottom = *low;
      }
      auto group_of = [&](size_t i) {
        const uint64_t clamped =
            std::min<uint64_t>(rank[members[i]], kRankGroups - 1);
        const size_t o =
            octave.empty() ? 0 : static_cast<size_t>(top - octave[i]);
        return o * kRankGroups +
               (descending ? kRankGroups - 1 - clamped : clamped);
      };
      std::vector<size_t> begin(
          static_cast<size_t>(top - bottom + 1) * kRankGroups + 1, 0);
      for (size_t i = 0; i < members.size(); ++i) ++begin[group_of(i) + 1];
      for (size_t b = 1; b < begin.size(); ++b) begin[b] += begin[b - 1];
      std::vector<size_t> next(begin.begin(), begin.end() - 1);
      for (size_t i = 0; i < members.size(); ++i) {
        order[next[group_of(i)]++] = members[i];
      }
      for (size_t b = 0; b + 1 < begin.size(); ++b) {
        const auto first = order.begin() + static_cast<ptrdiff_t>(begin[b]);
        const auto last = order.begin() + static_cast<ptrdiff_t>(begin[b + 1]);
        if (!std::is_sorted(first, last, by_rank)) {
          std::sort(first, last, by_rank);
        }
      }
      break;
    }
  }
  return order;
}

void DistributeLabels(const Digraph& g, const std::vector<Vertex>& order,
                      const std::vector<uint32_t>& key_of,
                      LabelBuilder* labeling, BuildStats* stats) {
  const size_t n = g.num_vertices();
  // One worker per row partition of the builder: each searches hops, then
  // appends its partition's rows.
  const size_t parts = labeling->parts();
  std::vector<HopWorker> workers(parts);
  // Reserved up front: a BFS queue never holds more than n vertices, and a
  // partition's share of one batch's lists is about n / parts. These are
  // fresh pages, resident only once written. Growing them mid-build (a
  // new mapping and a copy per doubling) cost the search about 2 ms, a
  // tenth, on the arxiv stand-in at 4 threads.
  for (HopWorker& worker : workers) {
    worker.queue.reserve(n);
    worker.routed.resize(parts);
    for (CandidateBuffer& routed : worker.routed) {
      routed.reserve(n / parts + 1);
    }
  }
  std::vector<BatchHop> batch(std::min(order.size(), kMaxHopBatch));
  for (BatchHop& slot : batch) {
    slot.rev.resize(parts);
    slot.fwd.resize(parts);
  }
  std::vector<uint32_t> batch_pos(n, kNotInBatch);

  // Algorithm 2's hop loop, a batch of consecutive hops at a time. Each
  // batch runs two parallel phases with a short serial step between:
  //   1. Search (parallel over hops): every hop's pruned BFS runs against
  //      the labels as they stood when the batch began, so hops of one
  //      batch do not prune each other and their lists may hold redundant
  //      entries. Each list is routed once, by row partition
  //      (LabelBuilder::PartOf), into the worker's buffers.
  //   2. Cleanup, serial part: hop j's witnesses are the earlier hops k of
  //      the batch whose forward list holds hop j (they may make its Lout
  //      entries redundant) or whose reverse list does (Lin entries).
  //   3. Cleanup and append (parallel, owner-computes): partition p's task
  //      walks the batch in order and appends each hop's entries of its own
  //      routed lists, dropping Lout entry (hop j, u) iff a witness k of j
  //      has u in its reverse list (Lin entries symmetrically). u's entries
  //      are all in u's partition, so the drop reads no other partition's
  //      lists, and no worker re-reads lists another one already scanned.
  //      Each row has one writer and receives its keys in batch order, so
  //      the rows equal a sequential append's for any partition count.
  // Why this is exact: the sequential loop computes the canonical labeling,
  // where h is in Lout(u) iff u reaches h and no earlier hop w has
  // u -> w -> h (Lin symmetrically). Search candidates are the pairs no
  // earlier *batch* covers. If candidate (hop j, u) is redundant, let k be
  // the earliest hop on any u -> j path: it lies in the batch, and no
  // pre-batch hop lies on u -> k or k -> j, so u is in k's reverse list and
  // j in k's forward list, and the cleanup drops the entry. Every witness
  // the cleanup uses is a real path u -> k -> j through an earlier hop.
  // So the kept entries are the sequential labeling byte for byte, for any
  // batch schedule and thread count.
  Timer phase;
  size_t size = 1;
  for (size_t start = 0; start < order.size();
       start += size, size = std::min(2 * size, kMaxHopBatch)) {
    const size_t count = std::min(size, order.size() - start);
    for (size_t j = 0; j < count; ++j) {
      batch_pos[order[start + j]] = static_cast<uint32_t>(j);
    }

    phase.Reset();
    ParallelChunks(0, count, 1, static_cast<int>(parts),
                   [&](const ChunkInfo& chunk) {
      HopWorker& worker = workers[chunk.worker];
      const uint32_t j = static_cast<uint32_t>(chunk.begin);
      const Vertex hop = order[start + j];
      auto search = [&](bool forward, std::vector<ListRef>* lists,
                        std::vector<std::pair<uint32_t, uint32_t>>* hits) {
        for (size_t p = 0; p < parts; ++p) {
          (*lists)[p] = {&worker.routed[p], worker.routed[p].size(), 0};
        }
        const std::span<const Vertex> admitted =
            forward ? SearchHop<true>(g, *labeling, hop, &worker)
                    : SearchHop<false>(g, *labeling, hop, &worker);
        for (const Vertex v : admitted) {
          if (batch_pos[v] != kNotInBatch && batch_pos[v] > j) {
            hits->emplace_back(batch_pos[v], j);
          }
          worker.routed[labeling->PartOf(v)].push_back(v);
        }
        for (size_t p = 0; p < parts; ++p) {
          (*lists)[p].end = worker.routed[p].size();
        }
      };
      search(/*forward=*/false, &batch[j].rev, &worker.rev_hits);
      search(/*forward=*/true, &batch[j].fwd, &worker.fwd_hits);
    });
    if (stats != nullptr) {
      stats->search_millis += phase.ElapsedMillis();
      for (HopWorker& worker : workers) worker.FlushProbes(stats);
    }

    phase.Reset();
    for (size_t j = 0; j < count; ++j) {
      batch[j].out_witnesses.clear();
      batch[j].in_witnesses.clear();
    }
    for (HopWorker& worker : workers) {
      for (const auto& [j, k] : worker.fwd_hits) {
        batch[j].out_witnesses.push_back(k);
      }
      for (const auto& [j, k] : worker.rev_hits) {
        batch[j].in_witnesses.push_back(k);
      }
      worker.fwd_hits.clear();
      worker.rev_hits.clear();
    }
    if (stats != nullptr) stats->cleanup_millis += phase.ElapsedMillis();

    phase.Reset();
    ParallelChunks(0, parts, 1, static_cast<int>(parts),
                   [&](const ChunkInfo& chunk) {
      HopWorker& worker = workers[chunk.worker];
      const size_t part = chunk.begin;
      for (size_t j = 0; j < count; ++j) {
        const uint32_t key = key_of[order[start + j]];
        AppendUnwitnessed(batch, j, &BatchHop::rev, batch[j].out_witnesses,
                          part, n, &worker,
                          [&](Vertex u) { labeling->InsertOut(u, key); });
        AppendUnwitnessed(batch, j, &BatchHop::fwd, batch[j].in_witnesses,
                          part, n, &worker,
                          [&](Vertex w) { labeling->InsertIn(w, key); });
      }
    });
    if (stats != nullptr) {
      stats->append_millis += phase.ElapsedMillis();
      ++stats->batches;
    }
    for (size_t j = 0; j < count; ++j) {
      batch_pos[order[start + j]] = kNotInBatch;
    }
    for (HopWorker& worker : workers) {
      for (CandidateBuffer& routed : worker.routed) routed.clear();
    }
  }
}

Status DistributionLabelingOracle::BuildIndex(const Dag& dag) {
  Timer timer;
  Timer phase;
  const size_t n = dag.num_vertices();
  std::vector<Vertex> members(n);
  for (Vertex v = 0; v < n; ++v) members[v] = v;
  DistributionOrder applied = options_.order;
  order_ = ComputeDistributionOrder(dag, members, options_, build_threads(),
                                    &applied);
  build_stats_.order = DistributionOrderName(applied);

  // Hop keys are order positions, so each row receives its keys in
  // ascending order and every insert is an append at the row's back.
  std::vector<uint32_t> key_of(n, 0);
  for (uint32_t i = 0; i < order_.size(); ++i) key_of[order_[i]] = i;
  build_stats_.order_millis = phase.ElapsedMillis();

  phase.Reset();
  LabelBuilder builder(n, static_cast<size_t>(build_threads()));
  DistributeLabels(dag.graph(), order_, key_of, &builder, &build_stats_);
  build_stats_.label_millis = phase.ElapsedMillis();

  if (budget_.max_seconds > 0 && timer.ElapsedSeconds() > budget_.max_seconds) {
    return Status::ResourceExhausted("DL construction exceeded time budget");
  }
  if (budget_.max_index_integers > 0 &&
      builder.TotalEntries() > budget_.max_index_integers) {
    return Status::ResourceExhausted("DL index exceeded size budget");
  }
  // Construction is done mutating: compact to the flat query layout.
  build_stats_.label_storage_bytes = builder.StorageBytes();
  phase.Reset();
  labeling_ = std::move(builder).Seal(build_threads());
  build_stats_.seal_millis = phase.ElapsedMillis();
  return Status::OK();
}

Status DistributionLabelingOracle::LoadIndexMapped(const Digraph& dag,
                                                   MappedRegion region) {
  StatusOr<LabelStore> mapped = MapLabelStoreFor(dag, std::move(region), "DL");
  if (!mapped.ok()) return mapped.status();
  labeling_ = std::move(*mapped);
  order_.clear();  // Construction metadata; not part of the snapshot.
  return Status::OK();
}

}  // namespace reach
