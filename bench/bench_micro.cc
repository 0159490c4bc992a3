// Google-benchmark micro benchmarks for the hot primitives: sorted-vector
// intersection (the query inner loop), bitset row unions (TC construction),
// PWAH compress/probe, bounded BFS, end-to-end DL/HL/GRAIL builds on a
// fixed mid-size graph, a frame of label queries one by one against the
// prefetch pipeline, and the streamed edge-list reader.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/grail.h"
#include "baselines/pwah.h"
#include "core/distribution_labeling.h"
#include "core/hierarchical_labeling.h"
#include "core/label_store.h"
#include "core/labeling_oracle.h"
#include "datasets/registry.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/transitive_closure.h"
#include "util/rng.h"
#include "util/sorted_ops.h"

namespace {

using namespace reach;

std::vector<uint32_t> RandomSortedVector(size_t n, uint32_t universe,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<uint32_t>(rng.Uniform(universe)));
  }
  SortUnique(&v);
  return v;
}

void BM_SortedIntersects(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  auto a = RandomSortedVector(len, 1 << 20, 1);
  auto b = RandomSortedVector(len, 1 << 20, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedIntersects(a, b));
  }
}
BENCHMARK(BM_SortedIntersects)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

// --- Intersection-kernel suite: merge vs gallop vs SIMD vs adaptive
// across size ratios 1:1 .. 1:10^4 and three key distributions, so the
// crossover constants (kGallopRatio, kSimdMinBalanced) are measured rather
// than guessed. Args are {|small|, ratio, dist}; |large| = |small| * ratio.
//
// Distributions (hop labels are not uniform keys, so the crossovers are
// measured on label-shaped data too):
//   0 uniform    independent uniform keys, mostly-negative intersections
//                (one shared universe so the kernels do real work)
//   1 clustered  runs-heavy: keys arrive in runs of ~16 consecutive values
//                (DL admits contiguous stretches of order positions, so
//                real labels cluster; runs make merge's branch predictor
//                look good and gallop overshoot)
//   2 firsthit   both sides share their smallest element (the shape of a
//                positive query certified by the highest-order hop: the
//                scan answers true on the first comparison; measures each
//                kernel's fixed overhead, which the adaptive tree must not
//                regress)

enum class KeyDist { kUniform = 0, kClustered = 1, kFirstHit = 2 };

std::vector<uint32_t> ClusteredSortedVector(size_t n, uint32_t universe,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> v;
  v.reserve(n);
  while (v.size() < n) {
    uint32_t key = static_cast<uint32_t>(rng.Uniform(universe));
    const size_t run = 1 + rng.Uniform(31);  // Mean run ~16.
    for (size_t i = 0; i < run && v.size() < n; ++i) v.push_back(key++);
  }
  SortUnique(&v);
  return v;
}

std::pair<std::vector<uint32_t>, std::vector<uint32_t>> RatioInputs(
    size_t small_len, size_t ratio, KeyDist dist) {
  const uint32_t universe = 1 << 24;
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  switch (dist) {
    case KeyDist::kUniform:
      small = RandomSortedVector(small_len, universe, 11);
      large = RandomSortedVector(small_len * ratio, universe, 12);
      break;
    case KeyDist::kClustered:
      small = ClusteredSortedVector(small_len, universe, 11);
      large = ClusteredSortedVector(small_len * ratio, universe, 12);
      break;
    case KeyDist::kFirstHit:
      small = RandomSortedVector(small_len, universe, 11);
      large = RandomSortedVector(small_len * ratio, universe, 12);
      if (!small.empty() && !large.empty()) {
        const uint32_t shared = std::min(small.front(), large.front());
        small.front() = shared;
        large.front() = shared;
      }
      break;
  }
  return {std::move(small), std::move(large)};
}

std::pair<std::vector<uint32_t>, std::vector<uint32_t>> StateInputs(
    const benchmark::State& state) {
  return RatioInputs(static_cast<size_t>(state.range(0)),
                     static_cast<size_t>(state.range(1)),
                     static_cast<KeyDist>(state.range(2)));
}

void BM_IntersectMerge(benchmark::State& state) {
  auto [small, large] = StateInputs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeIntersects(small, large));
  }
}

void BM_IntersectGallop(benchmark::State& state) {
  auto [small, large] = StateInputs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GallopIntersects(small, large));
  }
}

// The SIMD block kernel (util/simd.h); at tier 0 this times the scalar
// merge, so compare against BM_IntersectMerge only on a SIMD build (the
// reported label below says which tier ran).
void BM_IntersectSimd(benchmark::State& state) {
  auto [small, large] = StateInputs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimdIntersects(small, large));
  }
  state.SetLabel(SimdKernelName());
}

void BM_IntersectAdaptive(benchmark::State& state) {
  auto [small, large] = StateInputs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedIntersects(small, large));
  }
  state.SetLabel(SimdKernelName());
}

void IntersectRatioArgs(benchmark::internal::Benchmark* b) {
  for (const int64_t dist : {0, 1, 2}) {
    for (const int64_t ratio : {1, 8, 32, 100, 1000, 10000}) {
      b->Args({16, ratio, dist});
    }
    // Balanced sizes around (and past) typical label lengths: where the
    // SIMD block kernel vs scalar merge crossover (kSimdMinBalanced) and
    // the headline 128:128 comparison live.
    for (const int64_t small : {4, 8, 32, 128, 512}) {
      b->Args({small, 1, dist});
    }
    for (const int64_t ratio : {32, 1000}) {
      b->Args({128, ratio, dist});
    }
  }
}

BENCHMARK(BM_IntersectMerge)->Apply(IntersectRatioArgs);
BENCHMARK(BM_IntersectGallop)->Apply(IntersectRatioArgs);
BENCHMARK(BM_IntersectSimd)->Apply(IntersectRatioArgs);
BENCHMARK(BM_IntersectAdaptive)->Apply(IntersectRatioArgs);

// --- LabelBuilder inserts on ascending keys: the append every DL label
// entry takes (keys are order positions). Grows 64 rows of one partition
// from empty to Arg keys each per iteration, in a fresh builder, so the
// rate per inserted key includes the row moves and the arena's chunks.
void BM_LabelBuilderAppend(benchmark::State& state) {
  constexpr Vertex kRows = 64;
  const uint32_t len = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    LabelBuilder rows(kRows);
    for (uint32_t i = 0; i < len; ++i) {
      for (Vertex v = 0; v < kRows; ++v) rows.InsertOut(v, 3 * i);
    }
    benchmark::DoNotOptimize(rows.Out(0).data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(len) *
                          kRows);
}
BENCHMARK(BM_LabelBuilderAppend)->Arg(4)->Arg(64)->Arg(1024);

// The O(1) range rejection: two big labels whose key windows are disjoint
// (exactly what DL's total-order keys produce on most negative queries).
void BM_IntersectRangeReject(benchmark::State& state) {
  std::vector<uint32_t> low;
  std::vector<uint32_t> high;
  for (uint32_t i = 0; i < 4096; ++i) {
    low.push_back(i);
    high.push_back(1 << 20 | i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedIntersects(low, high));
  }
}
BENCHMARK(BM_IntersectRangeReject);

void BM_BitsetUnion(benchmark::State& state) {
  const size_t bits = static_cast<size_t>(state.range(0));
  Bitset a(bits);
  Bitset b(bits);
  Rng rng(3);
  for (size_t i = 0; i < bits / 16; ++i) {
    a.Set(rng.Uniform(bits));
    b.Set(rng.Uniform(bits));
  }
  for (auto _ : state) {
    a.UnionWith(b);
    benchmark::DoNotOptimize(a);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bits / 8);
}
BENCHMARK(BM_BitsetUnion)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_PwahCompress(benchmark::State& state) {
  const size_t bits = 1 << 18;
  Bitset b(bits);
  Rng rng(4);
  const double density = 1.0 / static_cast<double>(state.range(0));
  for (size_t i = 0; i < bits; ++i) {
    if (rng.Bernoulli(density)) b.Set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PwahBitset::Compress(b));
  }
}
BENCHMARK(BM_PwahCompress)->Arg(2)->Arg(64)->Arg(4096);

void BM_PwahTest(benchmark::State& state) {
  const size_t bits = 1 << 18;
  Bitset b(bits);
  Rng rng(5);
  for (size_t i = 0; i < bits / 64; ++i) b.Set(rng.Uniform(bits));
  PwahBitset compressed = PwahBitset::Compress(b);
  uint32_t probe = 0;
  for (auto _ : state) {
    probe = (probe + 7919) % bits;
    benchmark::DoNotOptimize(compressed.Test(probe));
  }
}
BENCHMARK(BM_PwahTest);

void BM_TransitiveClosure(benchmark::State& state) {
  Digraph g = RandomDag(static_cast<size_t>(state.range(0)),
                        static_cast<size_t>(state.range(0)) * 3, 6);
  for (auto _ : state) {
    auto tc = TransitiveClosure::Compute(*Dag::Check(g));
    benchmark::DoNotOptimize(tc);
  }
}
BENCHMARK(BM_TransitiveClosure)->Arg(500)->Arg(2000);

// Args: vertices, build threads. The label phase's split (search, cleanup,
// append) and the seal are reported per build, so 1 against 4 threads
// shows which phase scales.
void BM_BuildDL(benchmark::State& state) {
  Digraph g = CitationDag(static_cast<size_t>(state.range(0)), 3.0, 7);
  BuildOptions options;
  options.threads = static_cast<int>(state.range(1));
  BuildStats phases;
  for (auto _ : state) {
    DistributionLabelingOracle oracle;
    benchmark::DoNotOptimize(oracle.Build(g, options));
    const BuildStats& stats = oracle.build_stats();
    phases.search_millis += stats.search_millis;
    phases.cleanup_millis += stats.cleanup_millis;
    phases.append_millis += stats.append_millis;
    phases.seal_millis += stats.seal_millis;
  }
  const double builds = static_cast<double>(state.iterations());
  state.counters["search_ms"] = phases.search_millis / builds;
  state.counters["cleanup_ms"] = phases.cleanup_millis / builds;
  state.counters["append_ms"] = phases.append_millis / builds;
  state.counters["seal_ms"] = phases.seal_millis / builds;
}
BENCHMARK(BM_BuildDL)
    ->ArgsProduct({{1000, 10000, 50000}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

void BM_BuildHL(benchmark::State& state) {
  Digraph g = CitationDag(static_cast<size_t>(state.range(0)), 3.0, 7);
  for (auto _ : state) {
    HierarchicalLabelingOracle oracle;
    benchmark::DoNotOptimize(oracle.Build(g));
  }
}
BENCHMARK(BM_BuildHL)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_BuildGrail(benchmark::State& state) {
  Digraph g = CitationDag(static_cast<size_t>(state.range(0)), 3.0, 7);
  for (auto _ : state) {
    GrailOracle oracle;
    benchmark::DoNotOptimize(oracle.Build(g));
  }
}
BENCHMARK(BM_BuildGrail)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_QueryDL(benchmark::State& state) {
  Digraph g = CitationDag(20000, 3.0, 8);
  DistributionLabelingOracle oracle;
  if (!oracle.Build(g).ok()) {
    state.SkipWithError("build failed");
    return;
  }
  Rng rng(9);
  for (auto _ : state) {
    const Vertex u = static_cast<Vertex>(rng.Uniform(20000));
    const Vertex v = static_cast<Vertex>(rng.Uniform(20000));
    benchmark::DoNotOptimize(oracle.Reachable(u, v));
  }
}
BENCHMARK(BM_QueryDL);

/// A sealed label store over a registry stand-in, with 2^20 uniform random
/// pairs: HL on cit-Patents (13.3 MB, larger than a core's L2) or DL on
/// arxiv (3.9 MB), as perfbench's serving workloads index them.
struct QueryStore {
  QueryStore(const char* dataset, std::unique_ptr<LabelingOracle> built) {
    const StatusOr<DatasetSpec> spec = FindDataset(dataset);
    if (!spec.ok()) return;
    graph = MakeDataset(*spec);
    if (!built->Build(graph).ok()) return;
    oracle = std::move(built);
    Rng rng(20261021);
    const size_t n = graph.num_vertices();
    pairs.resize(size_t{1} << 20);
    for (VertexPair& pair : pairs) {
      pair.u = static_cast<Vertex>(rng.Uniform(n));
      pair.v = static_cast<Vertex>(rng.Uniform(n));
    }
  }

  Digraph graph;
  std::unique_ptr<LabelingOracle> oracle;
  std::vector<VertexPair> pairs;
};

/// Arg 0: HL on cit-Patents; 1: DL on arxiv. Built once per process.
const QueryStore& QueryStoreFor(int64_t which) {
  static const QueryStore hl(
      "cit-Patents", std::make_unique<HierarchicalLabelingOracle>());
  static const QueryStore dl(
      "arxiv", std::make_unique<DistributionLabelingOracle>());
  return which == 0 ? hl : dl;
}

/// Runs `frame(pairs, answers)` over the store's pairs in 1000-pair
/// frames, cycling through them, and reports ns per pair.
template <typename Frame>
void QueryFrames(benchmark::State& state, Frame frame) {
  const QueryStore& store = QueryStoreFor(state.range(0));
  if (store.oracle == nullptr) {
    state.SkipWithError("cannot build the stand-in's labels");
    return;
  }
  constexpr size_t kFrame = 1000;
  std::vector<uint8_t> answers(kFrame);
  size_t at = 0;
  for (auto _ : state) {
    if (at + kFrame > store.pairs.size()) at = 0;
    frame(store.oracle->labeling(),
          std::span<const VertexPair>(store.pairs.data() + at, kFrame),
          std::span<uint8_t>(answers));
    benchmark::DoNotOptimize(answers.data());
    benchmark::ClobberMemory();
    at += kFrame;
  }
  state.counters["ns/pair"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kFrame),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// The frame answered one LabelStore::Query after another.
void BM_QueryLoop(benchmark::State& state) {
  QueryFrames(state, [](const LabelStore& labels,
                        std::span<const VertexPair> pairs,
                        std::span<uint8_t> answers) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      answers[i] = labels.Query(pairs[i].u, pairs[i].v) ? 1 : 0;
    }
  });
}
BENCHMARK(BM_QueryLoop)->Arg(0)->Arg(1);

// The same frames through the prefetch pipeline of LabelStore::QueryMany.
void BM_QueryMany(benchmark::State& state) {
  QueryFrames(state, [](const LabelStore& labels,
                        std::span<const VertexPair> pairs,
                        std::span<uint8_t> answers) {
    labels.QueryMany(pairs, answers);
  });
}
BENCHMARK(BM_QueryMany)->Arg(0)->Arg(1);

/// How the edge lines of a benchmark edge list are ordered.
enum class LineOrder {
  kSource,           // As WriteEdgeList writes them: nondecreasing sources.
  kShuffled,         // Shuffled by a fixed seed.
  kLastLineDescent,  // The first edge line moved to the end.
};

/// The cit-Patents stand-in written once as an edge list in `order`,
/// removed at exit. Every order holds the same lines, so the same graph.
struct EdgeListFile {
  explicit EdgeListFile(LineOrder order) {
    path = (std::filesystem::temp_directory_path() /
            ("bench_micro_cit_patents_" +
             std::to_string(static_cast<int>(order)) + ".txt"))
               .string();
    const StatusOr<DatasetSpec> spec = FindDataset("cit-Patents");
    std::ostringstream text;
    if (!spec.ok() || !WriteEdgeList(MakeDataset(*spec), text).ok()) return;
    std::istringstream in(text.str());
    std::string header;
    std::getline(in, header);
    std::vector<std::string> edges;
    for (std::string line; std::getline(in, line);) edges.push_back(line);
    if (order == LineOrder::kShuffled) {
      std::shuffle(edges.begin(), edges.end(), std::mt19937_64(20261017));
    } else if (order == LineOrder::kLastLineDescent) {
      std::rotate(edges.begin(), edges.begin() + 1, edges.end());
    }
    std::ofstream out(path, std::ios::binary);
    out << header << '\n';
    for (const std::string& line : edges) out << line << '\n';
    if (!out.flush()) return;
    bytes = static_cast<int64_t>(out.tellp());
    lines = static_cast<int64_t>(edges.size()) + 1;
  }
  ~EdgeListFile() { std::remove(path.c_str()); }

  std::string path;
  int64_t bytes = 0;
  int64_t lines = 0;
};

/// The ingest layer on its own: ReadEdgeListFile's streamed passes,
/// canonicalization and CSR build, from the page cache. `passes` reports
/// how many passes the reader made over the file, `ranges` how many byte
/// ranges it parsed in parallel (REACH_THREADS sets the most).
void ReadEdgeListFileLoop(benchmark::State& state, const EdgeListFile& file) {
  if (file.bytes == 0) {
    state.SkipWithError("cannot write the cit-Patents edge list");
    return;
  }
  GraphReadStats stats;
  for (auto _ : state) {
    StatusOr<Digraph> g = ReadEdgeListFile(file.path, &stats);
    if (!g.ok()) {
      state.SkipWithError(g.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(g);
  }
  state.SetBytesProcessed(state.iterations() * file.bytes);
  state.counters["lines/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * file.lines),
      benchmark::Counter::kIsRate);
  state.counters["passes"] = stats.passes;
  state.counters["ranges"] = stats.ranges;
}

void BM_ReadEdgeListFile(benchmark::State& state) {
  static const EdgeListFile file(LineOrder::kSource);
  ReadEdgeListFileLoop(state, file);
}
BENCHMARK(BM_ReadEdgeListFile)->Unit(benchmark::kMillisecond);

// The two-pass fallback on the same lines.
void BM_ReadEdgeListFileShuffled(benchmark::State& state) {
  static const EdgeListFile file(LineOrder::kShuffled);
  ReadEdgeListFileLoop(state, file);
}
BENCHMARK(BM_ReadEdgeListFileShuffled)->Unit(benchmark::kMillisecond);

// The fallback's worst case: the ranges stage every head before the last
// range's descent drops them, then the file is read again in two passes.
void BM_ReadEdgeListFileLastLineDescent(benchmark::State& state) {
  static const EdgeListFile file(LineOrder::kLastLineDescent);
  ReadEdgeListFileLoop(state, file);
}
BENCHMARK(BM_ReadEdgeListFileLastLineDescent)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
