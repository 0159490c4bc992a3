#include "probes.h"

#include <atomic>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "baselines/factory.h"
#include "core/distribution_labeling.h"
#include "core/hierarchical_labeling.h"
#include "core/label_store.h"
#include "core/prefilter.h"
#include "server/session.h"
#include "server/snapshot.h"
#include "util/resource.h"
#include "util/sorted_ops.h"

namespace perfbench {

namespace {

using reach::ReachabilityIndex;
using reach::Vertex;

constexpr int kBuildRepeats = 2;
constexpr int kPassRepeats = 5;
constexpr int kSnapshotRepeats = 5;
constexpr size_t kFeedPairs = 1 << 17;
constexpr size_t kFeedFrame = 1000;
constexpr size_t kAcquireCalls = 1 << 20;
/// Pool pairs re-answered by every index a probe builds or loads.
constexpr size_t kSpotChecks = 4096;

/// A pool pair with its endpoints resolved to component ids.
struct Resolved {
  Vertex u;
  Vertex v;
  Vertex cu;
  Vertex cv;
  bool reachable;
};

const reach::LabelStore* LabelsOf(const reach::ReachabilityOracle& oracle) {
  if (const auto* dl =
          dynamic_cast<const reach::DistributionLabelingOracle*>(&oracle)) {
    return &dl->labeling();
  }
  if (const auto* hl =
          dynamic_cast<const reach::HierarchicalLabelingOracle*>(&oracle)) {
    return &hl->labeling();
  }
  return nullptr;
}

/// Counts wrong answers of `index` on the first kSpotChecks pool pairs.
uint64_t SpotCheck(const ReachabilityIndex& index,
                   const std::vector<Pair>& pool, RunResult* result) {
  uint64_t wrong = 0;
  const size_t n = std::min(kSpotChecks, pool.size());
  for (size_t i = 0; i < n; ++i) {
    wrong += index.Reachable(pool[i].u, pool[i].v) != pool[i].reachable;
  }
  result->attempted += n;
  result->failed += wrong;
  return wrong;
}

/// Runs `pass` (which returns its wrong-answer count) once inside a span
/// named `name`; returns nanoseconds per query.
template <typename Pass>
double TimePass(const char* name, size_t queries, const Pass& pass,
                const ProbeInputs& in, RunResult* result) {
  const int64_t start = NowNs();
  uint64_t wrong = 0;
  {
    ScopedSpan span(in.log, name, in.parent);
    wrong = pass();
  }
  const double ns = static_cast<double>(NowNs() - start) /
                    static_cast<double>(queries);
  result->attempted += queries;
  result->failed += wrong;
  result->Check(name, wrong == 0,
                std::to_string(wrong) + " answers differ from the truth");
  return ns;
}

void BuildProbe(const ProbeInputs& in, RunResult* result) {
  std::vector<double> build_ms[2];
  std::vector<double> condense_ms;
  for (int r = 0; r < kBuildRepeats; ++r) {
    for (const int threads : {0, 1}) {
      reach::BuildOptions options;
      options.threads = threads;
      reach::BuildStats stats;
      const int64_t start = NowNs();
      reach::StatusOr<ReachabilityIndex> index = [&] {
        ScopedSpan span(in.log, threads == 1 ? "core.build_t1" : "core.build",
                        in.parent);
        return ReachabilityIndex::Build(
            *in.graph, reach::MakeOracle(in.spec->method), options, &stats);
      }();
      const double wall_ms = static_cast<double>(NowNs() - start) / 1e6;
      result->Check("core.build", index.ok(),
                    index.ok() ? "" : index.status().ToString());
      if (!index.ok()) return;
      result->Check("core.build", SpotCheck(*index, *in.pool, result) == 0,
                    "a probe build answers differently from the truth");
      build_ms[threads].push_back(stats.build_millis);
      if (threads == 0) condense_ms.push_back(wall_ms - stats.build_millis);
    }
  }
  result->Set("core.build_ms", Median(build_ms[0]), "ms", kBuildRepeats);
  result->Set("core.build_ms_t1", Median(build_ms[1]), "ms", kBuildRepeats);
  result->Set("graph.condense_ms", Median(condense_ms), "ms", kBuildRepeats);
}

void QueryLadderProbe(const ProbeInputs& in, RunResult* result) {
  const ReachabilityIndex& index = *in.index;
  const reach::ReachabilityOracle& oracle = index.oracle();
  const reach::LabelStore* labels = LabelsOf(oracle);
  result->Check("core.labels", labels != nullptr,
                "the oracle under test is not a labeling oracle");
  if (labels == nullptr) return;
  using SpanPair =
      std::pair<std::span<const uint32_t>, std::span<const uint32_t>>;
  std::vector<Resolved> pairs;
  std::vector<SpanPair> spans;
  pairs.reserve(in.pool->size());
  spans.reserve(in.pool->size());
  for (const Pair& pair : *in.pool) {
    const Vertex cu = index.ComponentOf(pair.u);
    const Vertex cv = index.ComponentOf(pair.v);
    if (cu == cv) continue;  // Answered by the SCC map alone.
    pairs.push_back(Resolved{pair.u, pair.v, cu, cv, pair.reachable});
    spans.emplace_back(labels->Out(cu), labels->In(cv));
  }
  const size_t n = pairs.size();

  // Work counts: keys a query may scan, and how often the O(1) range test
  // already rejects it.
  std::vector<double> keys(n);
  uint64_t range_rejects = 0;
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<double>(spans[i].first.size() +
                                  spans[i].second.size());
    range_rejects += !reach::SortedRangesOverlap(spans[i].first,
                                                 spans[i].second);
  }
  double key_sum = 0;
  for (const double k : keys) key_sum += k;
  result->Set("core.keys_per_query_mean", key_sum / static_cast<double>(n),
              "count", n);
  result->Set("core.keys_per_query_p99", Quantile(keys, 0.99), "count", n);
  result->Set("core.range_reject_ratio",
              static_cast<double>(range_rejects) / static_cast<double>(n),
              "ratio", n);

  // One rung per layer, from the bare kernel up to the public index. The
  // rungs are interleaved within each repetition so that drift in machine
  // speed falls on all of them alike and adjacent differences stay
  // meaningful.
  struct Rung {
    const char* metric;
    const char* span;
    std::function<uint64_t()> pass;
  };
  const Rung rungs[] = {
      {"util.intersect_ns", "util.intersect",
       [&] {
         uint64_t wrong = 0;
         for (size_t i = 0; i < n; ++i) {
           wrong += reach::SortedIntersects(spans[i].first, spans[i].second) !=
                    pairs[i].reachable;
         }
         return wrong;
       }},
      {"core.label_query_ns", "core.label_query",
       [&] {
         uint64_t wrong = 0;
         for (const Resolved& p : pairs) {
           wrong += labels->Query(p.cu, p.cv) != p.reachable;
         }
         return wrong;
       }},
      {"core.oracle_ns", "core.oracle_reachable",
       [&] {
         uint64_t wrong = 0;
         for (const Resolved& p : pairs) {
           wrong += oracle.Reachable(p.cu, p.cv) != p.reachable;
         }
         return wrong;
       }},
      {"core.index_ns", "core.index_reachable",
       [&] {
         uint64_t wrong = 0;
         for (const Resolved& p : pairs) {
           wrong += index.Reachable(p.u, p.v) != p.reachable;
         }
         return wrong;
       }},
  };
  std::vector<double> samples[std::size(rungs)];
  for (int r = 0; r < kPassRepeats; ++r) {
    for (size_t k = 0; k < std::size(rungs); ++k) {
      samples[k].push_back(TimePass(rungs[k].span, n, rungs[k].pass, in,
                                    result));
    }
  }
  for (size_t k = 0; k < std::size(rungs); ++k) {
    result->Set(rungs[k].metric, Median(samples[k]), "ns", n * kPassRepeats);
  }
}

void PrefilterProbe(const ProbeInputs& in, RunResult* result) {
  ScopedSpan span(in.log, "core.prefilter_screen", in.parent);
  // The screens depend on the DAG only, so a traversal oracle stands in for
  // the wrapped index and the build pays just for the screening arrays.
  reach::PrefilterOracle prefilter(reach::MakeOracle("BFS"));
  const reach::Digraph& dag =
      in.index->identity_condensation() ? *in.graph : in.index->dag();
  const reach::Status built = prefilter.Build(dag);
  result->Check("prefilter.build", built.ok(), built.ToString());
  if (!built.ok()) return;
  uint64_t screened = 0;
  uint64_t unsound = 0;
  uint64_t total = 0;
  for (const Pair& pair : *in.pool) {
    const Vertex cu = in.index->ComponentOf(pair.u);
    const Vertex cv = in.index->ComponentOf(pair.v);
    if (cu == cv) continue;
    ++total;
    reach::PrefilterVerdict verdict = prefilter.TopoIntervalStage(cu, cv);
    if (verdict == reach::PrefilterVerdict::kMaybe) {
      verdict = prefilter.SupportStage(cu, cv);
    }
    if (verdict == reach::PrefilterVerdict::kMaybe) {
      verdict = prefilter.LevelStage(cu, cv);
    }
    if (verdict == reach::PrefilterVerdict::kMaybe) continue;
    ++screened;
    unsound += (verdict == reach::PrefilterVerdict::kYes) != pair.reachable;
  }
  result->attempted += total;
  result->failed += unsound;
  result->Check("prefilter.sound", unsound == 0,
                std::to_string(unsound) + " screened verdicts are wrong");
  result->Set("prefilter.hit_rate",
              static_cast<double>(screened) / static_cast<double>(total),
              "ratio", total);
}

void FeedProbe(const ProbeInputs& in, RunResult* result) {
  reach::server::ServerStats stats;
  reach::server::IndexSlot slot;
  slot.Publish(in.index);
  reach::server::SessionContext context;
  context.index = &slot;
  context.method = in.spec->method;
  context.graph_vertices = in.graph->num_vertices();
  context.graph_edges = in.graph->num_edges();
  context.stats = &stats;

  // Pre-encoded requests in the workload's own shape: single Q lines for the
  // Q-serving workload, BATCH frames otherwise.
  const bool q_lines = in.spec->name == "serve-q-dl";
  const size_t n =
      std::min(kFeedPairs, in.pool->size()) / kFeedFrame * kFeedFrame;
  std::vector<std::string> chunks;
  std::string expected;
  for (size_t i = 0; i < n; ++i) {
    const Pair& pair = (*in.pool)[i];
    if (i % kFeedFrame == 0) {
      chunks.emplace_back(q_lines ? "" : "BATCH " + std::to_string(kFeedFrame) +
                                              "\n");
    }
    chunks.back() += (q_lines ? "Q " : "") + std::to_string(pair.u) + " " +
                     std::to_string(pair.v) + "\n";
    expected += pair.reachable ? "1\n" : "0\n";
  }
  std::string out;
  out.reserve(expected.size());
  std::vector<double> samples;
  for (int r = 0; r < kPassRepeats; ++r) {
    reach::server::Session session(&context);
    out.clear();
    const int64_t start = NowNs();
    {
      ScopedSpan span(in.log, "server.session_feed", in.parent);
      for (const std::string& chunk : chunks) session.Feed(chunk, &out);
    }
    samples.push_back(static_cast<double>(NowNs() - start) /
                      static_cast<double>(n));
    result->attempted += n;
    if (out != expected) {
      result->failed += n;
      result->Check("server.session_feed", false,
                    "Session::Feed answers differ from the truth");
    }
  }
  const uint64_t queries = stats.queries.load();
  const uint64_t malformed = stats.malformed.load();
  result->Check("server.session_feed", queries == n * kPassRepeats &&
                                           malformed == 0,
                "session counters: queries " + std::to_string(queries) +
                    " malformed " + std::to_string(malformed));
  result->Set("server.feed_ns_per_query", Median(samples), "ns",
              n * kPassRepeats);
}

void AcquireProbe(const ProbeInputs& in, RunResult* result) {
  reach::server::IndexSlot slot;
  slot.Publish(in.index);
  // Each call copies and drops the shared_ptr, as a query does.
  const auto acquire_loop = [&slot] {
    uintptr_t sink = 0;
    for (size_t i = 0; i < kAcquireCalls; ++i) {
      sink ^= reinterpret_cast<uintptr_t>(slot.Acquire().get());
    }
    return sink;
  };
  std::vector<double> alone;
  std::vector<double> contended;
  std::atomic<uintptr_t> sink{0};
  for (int r = 0; r < kPassRepeats; ++r) {
    {
      ScopedSpan span(in.log, "server.index_acquire", in.parent);
      const int64_t start = NowNs();
      sink ^= acquire_loop();
      alone.push_back(static_cast<double>(NowNs() - start) / kAcquireCalls);
    }
    {
      ScopedSpan span(in.log, "server.index_acquire_2t", in.parent);
      const int64_t start = NowNs();
      std::thread other([&] { sink ^= acquire_loop(); });
      sink ^= acquire_loop();
      other.join();
      contended.push_back(static_cast<double>(NowNs() - start) /
                          kAcquireCalls);
    }
  }
  result->Set("server.acquire_ns", Median(alone), "ns",
              kAcquireCalls * kPassRepeats);
  result->Set("server.acquire_ns_2t", Median(contended), "ns",
              2 * kAcquireCalls * kPassRepeats);
}

void SnapshotProbe(const ProbeInputs& in, RunResult* result) {
  const std::string path = in.dir + "/probe.snap";
  const std::string& method = in.spec->method;
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  std::vector<double> rss_mb;
  for (int r = 0; r < kSnapshotRepeats; ++r) {
    const int64_t start = NowNs();
    reach::Status saved;
    {
      ScopedSpan span(in.log, "snapshot.save", in.parent);
      saved = reach::server::SaveIndexSnapshot(
          path, method, in.graph->num_vertices(), in.graph->num_edges(),
          in.index->oracle());
    }
    save_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    result->Check("snapshot.save", saved.ok(), saved.ToString());
    if (!saved.ok()) return;
  }
  for (int r = 0; r < kSnapshotRepeats; ++r) {
    const uint64_t rss_before = reach::CurrentRssKb();
    const int64_t start = NowNs();
    reach::StatusOr<ReachabilityIndex> loaded = [&] {
      ScopedSpan span(in.log, "snapshot.load", in.parent);
      return reach::server::LoadIndexSnapshotFile(
          path, method, *in.graph, reach::MakeOracle(method));
    }();
    load_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    rss_mb.push_back(
        static_cast<double>(reach::CurrentRssKb() - rss_before) / 1024.0);
    result->Check("snapshot.load", loaded.ok(),
                  loaded.ok() ? "" : loaded.status().ToString());
    if (!loaded.ok()) return;
    result->Check("snapshot.load", SpotCheck(*loaded, *in.pool, result) == 0,
                  "a loaded snapshot answers differently from the truth");
  }
  result->Set("snapshot.save_ms", Median(save_ms), "ms", kSnapshotRepeats);
  result->Set("snapshot.load_ms", Median(load_ms), "ms", kSnapshotRepeats);
  result->Set("snapshot.load_rss_mb", Median(rss_mb), "MB", kSnapshotRepeats);
}

}  // namespace

void RunProbes(const ProbeInputs& in, RunResult* result) {
  result->Set("core.index_integers",
              static_cast<double>(in.index->oracle().IndexSizeIntegers()),
              "count");
  BuildProbe(in, result);
  QueryLadderProbe(in, result);
  PrefilterProbe(in, result);
  FeedProbe(in, result);
  AcquireProbe(in, result);
  SnapshotProbe(in, result);
}

}  // namespace perfbench
