#include "bench/experiments.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "baselines/factory.h"
#include "bench/reporter.h"
#include "core/distribution_labeling.h"
#include "core/prefilter.h"
#include "core/reachability.h"
#include "query/workload.h"
#include "server/client.h"
#include "server/server.h"
#include "server/snapshot.h"
#include "util/mapped_blob.h"
#include "util/resource.h"
#include "util/span_stream.h"
#include "util/timer.h"

namespace reach {
namespace bench {

namespace {

/// Metrics measured by timing Reachable() over a workload in-process (the
/// serve metric also runs a workload, but through the wire).
bool IsQueryMetric(Metric metric) {
  return metric == Metric::kQueryMillis || metric == Metric::kQueryNanos;
}

std::vector<DatasetSpec> FilterDatasets(const std::vector<DatasetSpec>& all,
                                        const BenchConfig& config) {
  if (config.datasets.empty()) return all;
  std::vector<DatasetSpec> out;
  for (const DatasetSpec& spec : all) {
    for (const std::string& wanted : config.datasets) {
      if (spec.name == wanted) {
        // A filter is a set: a name repeated in --datasets must not run
        // (and report) the dataset twice.
        out.push_back(spec);
        break;
      }
    }
  }
  return out;
}

std::vector<std::string> MethodsFor(const ExperimentSpec& spec,
                                    const BenchConfig& config) {
  if (config.methods.empty()) {
    return spec.default_methods.empty() ? PaperOracleNames()
                                        : spec.default_methods;
  }
  // A filter is a set here too: a method repeated in --methods must not
  // run (and report) the same cell twice.
  std::vector<std::string> methods;
  for (const std::string& method : config.methods) {
    if (std::find(methods.begin(), methods.end(), method) == methods.end()) {
      methods.push_back(method);
    }
  }
  return methods;
}

DatasetInfo MakeDatasetInfo(const DatasetSpec& spec, const Digraph& g) {
  DatasetInfo info;
  info.name = spec.name;
  info.large = spec.large;
  info.family = GraphFamilyName(spec.family);
  info.scale = spec.scale;
  info.paper_vertices = spec.paper_vertices;
  info.paper_edges = spec.paper_edges;
  info.vertices = g.num_vertices();
  info.edges = g.num_edges();
  return info;
}

void RunInventory(const ExperimentSpec& spec, const BenchConfig& config,
                  Reporter* reporter, RunCache* cache) {
  reporter->BeginExperiment(spec, {}, config);
  for (const std::vector<DatasetSpec>* tier :
       {&SmallDatasets(), &LargeDatasets()}) {
    for (const DatasetSpec& d : FilterDatasets(*tier, config)) {
      Digraph local_graph;
      const Digraph& graph =
          cache != nullptr ? cache->Graph(d)
                           : (local_graph = MakeDataset(d), local_graph);
      reporter->AddDatasetInfo(MakeDatasetInfo(d, graph));
    }
  }
  reporter->EndExperiment();
}

/// Builds the record for a cell from its BuildStats (cached or fresh):
/// either the DNF/"--" form or, for stats-only metrics, the measured value.
/// For a successful query-metric cell the caller overwrites `value` with
/// the timed query loop afterwards.
RunRecord StatsRecord(const ExperimentSpec& spec, const std::string& dataset,
                      const std::string& method, const BuildStats& stats) {
  RunRecord record;
  record.dataset = dataset;
  record.method = method;
  record.metric = MetricName(spec.metric);
  record.build_ms = stats.build_millis;
  record.index_integers = stats.index_integers;
  record.index_bytes = stats.index_bytes;
  record.threads = stats.threads;
  if (!stats.ok) {
    record.budget_exceeded = stats.budget_exceeded;
    record.note = stats.failure_reason;
    return record;
  }
  record.ok = true;
  record.value = spec.metric == Metric::kConstructionMillis
                     ? stats.build_millis
                     : static_cast<double>(stats.index_integers);
  return record;
}

void RunTable(const ExperimentSpec& spec, const BenchConfig& config,
              Reporter* reporter, RunCache* cache) {
  const std::vector<DatasetSpec> datasets =
      FilterDatasets(DatasetsFor(spec), config);
  const std::vector<std::string> methods = MethodsFor(spec, config);

  reporter->BeginExperiment(spec, methods, config);
  // A requested dataset from the other tier passed global validation but
  // has no row here; say so rather than silently shrinking the table.
  for (const std::string& wanted : config.datasets) {
    bool present = false;
    for (const DatasetSpec& dataset : datasets) {
      present |= dataset.name == wanted;
    }
    if (!present) {
      reporter->DatasetError(wanted,
                             "not part of this experiment's dataset tier");
    }
  }
  for (const DatasetSpec& dataset : datasets) {
    Digraph local_graph;
    const Digraph& graph =
        cache != nullptr
            ? cache->Graph(dataset)
            : (local_graph = MakeDataset(dataset), local_graph);

    BuildOptions build_options;
    build_options.threads = config.threads;

    // Workload (query tables only): ground truth via DL, whose correctness
    // the test suite establishes independently of any method under test.
    Workload workload;
    if (IsQueryMetric(spec.metric)) {
      DistributionLabelingOracle local_truth;
      const ReachabilityOracle* truth = nullptr;
      if (cache != nullptr) {
        truth = cache->TruthOracle(dataset.name, graph, config.threads);
      } else if (local_truth.Build(graph, build_options).ok()) {
        truth = &local_truth;
      }
      if (truth == nullptr) {
        reporter->DatasetError(dataset.name, "workload truth build failed");
        continue;
      }
      WorkloadOptions options;
      options.num_queries = config.num_queries;
      options.seed = 7 + dataset.seed;
      workload = spec.workload == WorkloadKind::kEqual
                     ? MakeEqualWorkload(graph, *truth, options)
                     : MakeRandomWorkload(graph, *truth, options);
    }

    BuildBudget budget;
    budget.max_seconds = config.build_time_budget_seconds;
    budget.max_index_integers = config.build_index_budget_integers;

    for (const std::string& method : methods) {
      // A cached outcome replaces the build when it was a failure (retrying
      // would burn the full budget again for the same result) or when the
      // metric only needs stats; a successful query-table cell still needs
      // the live oracle.
      const BuildStats* cached =
          cache == nullptr ? nullptr
                           : cache->FindBuild(dataset.name, method, budget);
      if (cached != nullptr && (!cached->ok || !IsQueryMetric(spec.metric))) {
        reporter->AddRecord(StatsRecord(spec, dataset.name, method, *cached));
        continue;
      }

      std::unique_ptr<ReachabilityOracle> oracle = MakeOracle(method);
      if (oracle == nullptr) {
        RunRecord record;
        record.dataset = dataset.name;
        record.method = method;
        record.metric = MetricName(spec.metric);
        record.note = std::string("unknown method");
        reporter->AddRecord(record);
        continue;
      }
      oracle->set_budget(budget);

      const Status status = oracle->Build(graph, build_options);
      const BuildStats& stats = oracle->build_stats();
      if (cache != nullptr) {
        cache->InsertBuild(dataset.name, method, budget, stats);
      }
      if (!status.ok() || !IsQueryMetric(spec.metric)) {
        reporter->AddRecord(StatsRecord(spec, dataset.name, method, stats));
        continue;
      }

      RunRecord record = StatsRecord(spec, dataset.name, method, stats);
      // The ns/query metric repeats the workload until ~1M queries total,
      // so the per-query number is averaged over a stable window even
      // under --quick's small workloads; ms/100k keeps the paper tables'
      // single-pass semantics.
      const size_t passes =
          spec.metric == Metric::kQueryNanos
              ? (999999 / workload.queries.size()) + 1
              : 1;
      Timer query_timer;
      size_t hits = 0;
      for (size_t pass = 0; pass < passes; ++pass) {
        for (const Query& q : workload.queries) {
          hits += oracle->Reachable(q.from, q.to);
        }
      }
      const double elapsed_ms = query_timer.ElapsedMillis();
      const double total_queries =
          static_cast<double>(passes) *
          static_cast<double>(workload.queries.size());
      record.value = spec.metric == Metric::kQueryNanos
                         ? elapsed_ms * 1e6 / total_queries
                         : elapsed_ms * 100000.0 / total_queries;
      // Guard against dead-code elimination of the query loop.
      if (hits == SIZE_MAX) record.note.push_back('!');
      reporter->AddRecord(record);
    }
  }
  reporter->EndExperiment();
}

/// Serving-layer throughput: per (dataset, method) cell, build the oracle
/// inside a ReachServer on an ephemeral loopback port, send the whole
/// workload as one BATCH frame, and report end-to-end queries/second.
/// Every answer is cross-checked against the server's own in-process index
/// — a divergence is a correctness failure, not a slow cell.
void RunServe(const ExperimentSpec& spec, const BenchConfig& config,
              Reporter* reporter, RunCache* cache) {
  const std::vector<DatasetSpec> datasets =
      FilterDatasets(DatasetsFor(spec), config);
  const std::vector<std::string> methods = MethodsFor(spec, config);

  reporter->BeginExperiment(spec, methods, config);
  for (const std::string& wanted : config.datasets) {
    bool present = false;
    for (const DatasetSpec& dataset : datasets) {
      present |= dataset.name == wanted;
    }
    if (!present) {
      reporter->DatasetError(wanted,
                             "not part of this experiment's dataset rows");
    }
  }

  BuildBudget budget;
  budget.max_seconds = config.build_time_budget_seconds;
  budget.max_index_integers = config.build_index_budget_integers;

  for (const DatasetSpec& dataset : datasets) {
    Digraph local_graph;
    const Digraph& graph =
        cache != nullptr
            ? cache->Graph(dataset)
            : (local_graph = MakeDataset(dataset), local_graph);

    // The workload ground truth mirrors the query tables (DL).
    DistributionLabelingOracle local_truth;
    const ReachabilityOracle* truth = nullptr;
    BuildOptions build_options;
    build_options.threads = config.threads;
    if (cache != nullptr) {
      truth = cache->TruthOracle(dataset.name, graph, config.threads);
    } else if (local_truth.Build(graph, build_options).ok()) {
      truth = &local_truth;
    }
    if (truth == nullptr) {
      reporter->DatasetError(dataset.name, "workload truth build failed");
      continue;
    }
    WorkloadOptions workload_options;
    workload_options.num_queries = config.num_queries;
    workload_options.seed = 7 + dataset.seed;
    const Workload workload =
        MakeEqualWorkload(graph, *truth, workload_options);
    std::vector<std::pair<Vertex, Vertex>> queries;
    queries.reserve(workload.queries.size());
    for (const Query& q : workload.queries) {
      queries.emplace_back(q.from, q.to);
    }

    for (const std::string& method : methods) {
      // Serve builds run on the SCC condensation (vertex ids relabeled),
      // so their stats are NOT interchangeable with RunTable's raw-graph
      // builds — the cache key is namespaced to keep the table/figure
      // cells order-independent. A cached serve failure is still final
      // for this budget: skip the doomed server start.
      const std::string cache_method = method + "@serve";
      const BuildStats* cached =
          cache == nullptr
              ? nullptr
              : cache->FindBuild(dataset.name, cache_method, budget);
      if (cached != nullptr && !cached->ok) {
        reporter->AddRecord(StatsRecord(spec, dataset.name, method, *cached));
        continue;
      }

      server::ReachServer reach_server;
      server::ServerOptions server_options;
      server_options.method = method;
      server_options.build_threads = config.threads;
      server_options.budget = budget;
      server_options.workers = 2;
      // One BATCH frame carries the whole workload.
      server_options.limits.max_batch =
          std::max<uint64_t>(server_options.limits.max_batch,
                             queries.size());
      const Status started = reach_server.Start(graph, server_options);
      const BuildStats& stats = reach_server.build_stats();
      if (cache != nullptr) {
        cache->InsertBuild(dataset.name, cache_method, budget, stats);
      }
      RunRecord record = StatsRecord(spec, dataset.name, method, stats);
      if (!started.ok()) {
        if (record.note.empty()) record.note = started.ToString();
        record.ok = false;
        reporter->AddRecord(record);
        continue;
      }

      // Expected bytes from the in-process index, computed outside the
      // timed window.
      const std::shared_ptr<const ReachabilityIndex> index =
          reach_server.index();
      std::vector<std::string> expected;
      expected.reserve(queries.size());
      for (const auto& [u, v] : queries) {
        expected.push_back(index->Reachable(u, v) ? "1" : "0");
      }

      server::Client client;
      Status client_status =
          client.Connect("127.0.0.1", reach_server.port());
      if (client_status.ok()) {
        Timer timer;
        const StatusOr<std::vector<std::string>> answers =
            client.Batch(queries);
        const double elapsed_ms = timer.ElapsedMillis();
        if (!answers.ok()) {
          client_status = answers.status();
        } else if (*answers != expected) {
          record.ok = false;
          record.note = "server answers diverged from in-process oracle";
        } else {
          record.value = elapsed_ms > 0
                             ? static_cast<double>(queries.size()) * 1000.0 /
                                   elapsed_ms
                             : 0;
        }
      }
      if (!client_status.ok()) {
        record.ok = false;
        record.note = client_status.ToString();
      }
      client.Close();
      reach_server.Stop();
      reporter->AddRecord(record);
    }
  }
  reporter->EndExperiment();
}

/// Pre-filter tier: every row is one (dataset, query mix) pair and every
/// method contributes two columns — bare and wrapped in PrefilterOracle —
/// so the ns/query delta and the per-mix hit rate land side by side.
/// Before the timed loops the wrapped oracle's answers are cross-checked
/// against the bare oracle AND the workload's ground-truth labels over the
/// whole workload: a pre-filter that changes even one answer reports a
/// failed cell, not a fast one. The wrapped cell's note records the
/// fraction of queries the O(1) stages resolved ("hit_rate=NN.N%").
void RunPrefilter(const ExperimentSpec& spec, const BenchConfig& config,
                  Reporter* reporter, RunCache* cache) {
  const std::vector<DatasetSpec> datasets =
      FilterDatasets(DatasetsFor(spec), config);
  const std::vector<std::string> methods = MethodsFor(spec, config);
  std::vector<std::string> columns;
  for (const std::string& method : methods) {
    columns.push_back(method);
    columns.push_back(method + "+pf");
  }

  reporter->BeginExperiment(spec, columns, config);
  for (const std::string& wanted : config.datasets) {
    bool present = false;
    for (const DatasetSpec& dataset : datasets) {
      present |= dataset.name == wanted;
    }
    if (!present) {
      reporter->DatasetError(wanted,
                             "not part of this experiment's dataset rows");
    }
  }

  BuildBudget budget;
  budget.max_seconds = config.build_time_budget_seconds;
  budget.max_index_integers = config.build_index_budget_integers;
  constexpr QueryMix kMixes[] = {QueryMix::kNegativeHeavy, QueryMix::kMixed,
                                 QueryMix::kPositiveHeavy};

  for (const DatasetSpec& dataset : datasets) {
    Digraph local_graph;
    const Digraph& graph =
        cache != nullptr
            ? cache->Graph(dataset)
            : (local_graph = MakeDataset(dataset), local_graph);

    DistributionLabelingOracle local_truth;
    const ReachabilityOracle* truth = nullptr;
    BuildOptions build_options;
    build_options.threads = config.threads;
    if (cache != nullptr) {
      truth = cache->TruthOracle(dataset.name, graph, config.threads);
    } else if (local_truth.Build(graph, build_options).ok()) {
      truth = &local_truth;
    }
    if (truth == nullptr) {
      reporter->DatasetError(dataset.name, "workload truth build failed");
      continue;
    }

    for (const QueryMix mix : kMixes) {
      const std::string row =
          dataset.name + "/" + QueryMixName(mix);
      WorkloadOptions workload_options;
      workload_options.num_queries = config.num_queries;
      workload_options.seed =
          101 + dataset.seed * 4 + static_cast<uint64_t>(mix);
      const Workload workload =
          MakeMixWorkload(graph, *truth, workload_options, mix);
      if (workload.queries.empty()) {
        reporter->DatasetError(row, "empty workload");
        continue;
      }
      // The ns/query loops repeat the workload to ~1M queries total, same
      // averaging window as the query_quick experiment.
      const size_t passes = (999999 / workload.queries.size()) + 1;

      for (const std::string& method : methods) {
        std::unique_ptr<ReachabilityOracle> bare = MakeOracle(method);
        std::unique_ptr<ReachabilityOracle> inner = MakeOracle(method);
        if (bare == nullptr || inner == nullptr) {
          for (const char* suffix : {"", "+pf"}) {
            RunRecord record;
            record.dataset = row;
            record.method = method + suffix;
            record.metric = MetricName(spec.metric);
            record.note = "unknown method";
            reporter->AddRecord(record);
          }
          continue;
        }
        PrefilterOracle wrapped(std::move(inner));
        bare->set_budget(budget);
        wrapped.set_budget(budget);
        const Status bare_status = bare->Build(graph, build_options);
        const Status wrapped_status = wrapped.Build(graph, build_options);
        RunRecord bare_record =
            StatsRecord(spec, row, method, bare->build_stats());
        RunRecord wrapped_record =
            StatsRecord(spec, row, method + "+pf", wrapped.build_stats());
        if (!bare_status.ok() || !wrapped_status.ok()) {
          reporter->AddRecord(bare_record);
          reporter->AddRecord(wrapped_record);
          continue;
        }

        // Soundness gate before any timing: wrapped and bare must answer
        // the whole workload identically, and both must match the
        // truth-derived labels.
        bool sound = true;
        for (const Query& q : workload.queries) {
          const bool bare_answer = bare->Reachable(q.from, q.to);
          if (bare_answer != wrapped.Reachable(q.from, q.to) ||
              bare_answer != q.reachable) {
            sound = false;
            break;
          }
        }
        if (!sound) {
          bare_record.ok = false;
          wrapped_record.ok = false;
          wrapped_record.note = "prefilter answers diverged";
          reporter->AddRecord(bare_record);
          reporter->AddRecord(wrapped_record);
          continue;
        }

        // Hit rates come from one untimed counted pass; the timed loops
        // below run with counting off so neither side pays for the
        // instrumentation (the locked add is measurable at this scale).
        wrapped.ResetCounters();
        for (const Query& q : workload.queries) {
          wrapped.Reachable(q.from, q.to);
        }
        const PrefilterStageCounters counters = wrapped.counters();

        size_t hits = 0;
        Timer bare_timer;
        for (size_t pass = 0; pass < passes; ++pass) {
          for (const Query& q : workload.queries) {
            hits += bare->Reachable(q.from, q.to);
          }
        }
        const double bare_ms = bare_timer.ElapsedMillis();

        wrapped.set_counting_enabled(false);
        Timer wrapped_timer;
        for (size_t pass = 0; pass < passes; ++pass) {
          for (const Query& q : workload.queries) {
            hits += wrapped.Reachable(q.from, q.to);
          }
        }
        const double wrapped_ms = wrapped_timer.ElapsedMillis();
        wrapped.set_counting_enabled(true);
        const double total_queries =
            static_cast<double>(passes) *
            static_cast<double>(workload.queries.size());
        bare_record.value = bare_ms * 1e6 / total_queries;
        wrapped_record.value = wrapped_ms * 1e6 / total_queries;
        char note[32];
        std::snprintf(note, sizeof(note), "hit_rate=%.1f%%",
                      counters.Total() == 0
                          ? 0.0
                          : 100.0 * static_cast<double>(counters.Hits()) /
                                static_cast<double>(counters.Total()));
        wrapped_record.note = note;
        // Guard against dead-code elimination of the query loops.
        if (hits == SIZE_MAX) wrapped_record.note.push_back('!');
        reporter->AddRecord(bare_record);
        reporter->AddRecord(wrapped_record);
      }
    }
  }
  reporter->EndExperiment();
}

/// Cold-load path (load_quick): per (dataset, method) cell the oracle is
/// built once in-process, saved as a server snapshot to a scratch file,
/// and that file is then loaded twice into fresh indexes through the one
/// load path (ReachabilityIndex::LoadMapped, no parse on either side):
/// once over a read of the whole file into memory (MappedBlob::OpenOwned,
/// the /owned column) and once over the capability-picked mapping
/// (LoadIndexSnapshotFile; mmap where available). Each arm reports its
/// load wall-ms as the cell value and the load's resident-set growth as
/// "rss_kb=" in the note — the mapped arm's near-zero pair is the point:
/// load cost drops to O(index pages touched), while the owned arm pays
/// O(file size) to read every byte. Before either arm is reported, the
/// built, owned, and mapped indexes must answer a seeded query sample
/// identically; one divergence fails both cells.
///
/// The xl graphs deliberately bypass RunCache: pinning a 10^7-edge graph
/// for the rest of a bench_all run would dwarf the cache's laptop-scale
/// working set, and no other experiment revisits the tier.

void RunLoad(const ExperimentSpec& spec, const BenchConfig& config,
             Reporter* reporter, RunCache* /*cache*/) {
  const std::vector<DatasetSpec> datasets =
      FilterDatasets(DatasetsFor(spec), config);
  const std::vector<std::string> methods = MethodsFor(spec, config);
  std::vector<std::string> columns;
  for (const std::string& method : methods) {
    columns.push_back(method + "/owned");
    columns.push_back(method + "/mmap");
  }

  reporter->BeginExperiment(spec, columns, config);
  for (const std::string& wanted : config.datasets) {
    bool present = false;
    for (const DatasetSpec& dataset : datasets) {
      present |= dataset.name == wanted;
    }
    if (!present) {
      reporter->DatasetError(wanted,
                             "not part of this experiment's dataset rows");
    }
  }

  BuildBudget budget;
  budget.max_seconds = config.build_time_budget_seconds;
  budget.max_index_integers = config.build_index_budget_integers;
  BuildOptions build_options;
  build_options.threads = config.threads;
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string scratch_dir =
      tmpdir != nullptr && *tmpdir != '\0' ? tmpdir : "/tmp";

  for (const DatasetSpec& dataset : datasets) {
    const Digraph graph = MakeDataset(dataset);

    // Seeded query sample for the three-way identity gate. No ground
    // truth is needed — the gate checks that both load paths reproduce
    // the built index bit for bit, not that the index is correct (the
    // test suite owns that).
    std::vector<std::pair<Vertex, Vertex>> sample;
    sample.reserve(config.num_queries);
    uint64_t state = 0x9e3779b97f4a7c15ULL ^
                     (dataset.seed * 0xbf58476d1ce4e5b9ULL);
    const auto next_u64 = [&state]() {
      uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    const uint64_t n = graph.num_vertices();
    for (size_t i = 0; i < config.num_queries; ++i) {
      sample.emplace_back(static_cast<Vertex>(next_u64() % n),
                          static_cast<Vertex>(next_u64() % n));
    }
    const auto answers_of = [&sample](const ReachabilityIndex& index) {
      std::vector<char> answers;
      answers.reserve(sample.size());
      for (const auto& [u, v] : sample) {
        answers.push_back(index.Reachable(u, v) ? 1 : 0);
      }
      return answers;
    };

    for (const std::string& method : methods) {
      RunRecord owned_record;
      RunRecord mmap_record;
      const auto report_both = [&] {
        reporter->AddRecord(owned_record);
        reporter->AddRecord(mmap_record);
      };

      std::unique_ptr<ReachabilityOracle> oracle = MakeOracle(method);
      if (oracle == nullptr) {
        for (RunRecord* record : {&owned_record, &mmap_record}) {
          record->dataset = dataset.name;
          record->metric = MetricName(spec.metric);
          record->note = "unknown method";
        }
        owned_record.method = method + "/owned";
        mmap_record.method = method + "/mmap";
        report_both();
        continue;
      }
      oracle->set_budget(budget);
      BuildStats build_stats;
      const StatusOr<ReachabilityIndex> built = ReachabilityIndex::Build(
          graph, std::move(oracle), build_options, &build_stats);
      owned_record =
          StatsRecord(spec, dataset.name, method + "/owned", build_stats);
      mmap_record =
          StatsRecord(spec, dataset.name, method + "/mmap", build_stats);
      if (!built.ok()) {
        report_both();
        continue;
      }

      const std::string path = scratch_dir + "/reach_load_quick." +
                               dataset.name + "." + method + ".snapshot";
      const Status saved = server::SaveIndexSnapshot(
          path, method, graph.num_vertices(), graph.num_edges(),
          built->oracle());
      if (!saved.ok()) {
        for (RunRecord* record : {&owned_record, &mmap_record}) {
          record->ok = false;
          record->note = saved.ToString();
        }
        report_both();
        continue;
      }
      const std::vector<char> expected = answers_of(*built);

      // Owned arm in its own scope so its blob is released (and its RSS
      // returned) before the mapped arm measures its growth.
      double owned_ms = 0;
      uint64_t owned_rss_kb = 0;
      Status owned_status = Status::OK();
      std::vector<char> owned_answers;
      {
        const uint64_t rss_before = CurrentRssKb();
        Timer timer;
        const auto owned_load = [&]() -> StatusOr<ReachabilityIndex> {
          StatusOr<std::shared_ptr<const MappedBlob>> blob =
              MappedBlob::OpenOwned(path);
          if (!blob.ok()) return blob.status();
          SpanIStream header((*blob)->bytes());
          REACH_RETURN_IF_ERROR(server::ReadSnapshotHeader(
              header, method, graph.num_vertices(), graph.num_edges()));
          return ReachabilityIndex::LoadMapped(
              graph, MakeOracle(method),
              MappedRegion{*blob, server::SnapshotHeaderBytes(method.size())});
        };
        const StatusOr<ReachabilityIndex> owned = owned_load();
        owned_ms = timer.ElapsedMillis();
        const uint64_t rss_after = CurrentRssKb();
        owned_rss_kb = rss_after > rss_before ? rss_after - rss_before : 0;
        if (owned.ok()) {
          owned_answers = answers_of(*owned);
        } else {
          owned_status = owned.status();
        }
      }

      bool mapped = false;
      const uint64_t rss_before = CurrentRssKb();
      Timer timer;
      const StatusOr<ReachabilityIndex> mapped_index =
          server::LoadIndexSnapshotFile(path, method, graph,
                                        MakeOracle(method),
                                        /*stats_out=*/nullptr, &mapped);
      const double mmap_ms = timer.ElapsedMillis();
      const uint64_t rss_after = CurrentRssKb();
      const uint64_t mmap_rss_kb =
          rss_after > rss_before ? rss_after - rss_before : 0;
      std::remove(path.c_str());

      if (!owned_status.ok() || !mapped_index.ok()) {
        owned_record.ok = owned_status.ok();
        owned_record.note =
            owned_status.ok() ? owned_record.note : owned_status.ToString();
        mmap_record.ok = mapped_index.ok();
        if (!mapped_index.ok()) {
          mmap_record.note = mapped_index.status().ToString();
        }
        report_both();
        continue;
      }
      if (owned_answers != expected ||
          answers_of(*mapped_index) != expected) {
        for (RunRecord* record : {&owned_record, &mmap_record}) {
          record->ok = false;
          record->note = "owned/mapped answers diverged from built index";
        }
        report_both();
        continue;
      }

      char note[64];
      owned_record.value = owned_ms;
      std::snprintf(note, sizeof(note), "rss_kb=%llu",
                    static_cast<unsigned long long>(owned_rss_kb));
      owned_record.note = note;
      mmap_record.value = mmap_ms;
      std::snprintf(note, sizeof(note), "rss_kb=%llu%s",
                    static_cast<unsigned long long>(mmap_rss_kb),
                    mapped ? "" : " (no mmap; heap fallback)");
      mmap_record.note = note;
      report_both();
    }
  }
  reporter->EndExperiment();
}

}  // namespace

const std::vector<ExperimentSpec>& ExperimentRegistry() {
  static const std::vector<ExperimentSpec> kRegistry = [] {
    std::vector<ExperimentSpec> specs;

    ExperimentSpec table1;
    table1.id = "table1";
    table1.title = "Table 1: real datasets (synthetic stand-ins)";
    table1.shape_note =
        "14 small graphs at original scale; 13 large graphs scaled down per "
        "DESIGN.md 3.1";
    table1.kind = ExperimentKind::kInventory;
    specs.push_back(table1);

    ExperimentSpec table2;
    table2.id = "table2";
    table2.title = "Table 2: query time (ms), equal workload, small graphs";
    table2.shape_note =
        "PT fastest; KR close; DL ~2x PT and faster than INT/PW8; "
        "DL ~2/3 of 2HOP; HL comparable to 2HOP; GL and PL slowest";
    table2.metric = Metric::kQueryMillis;
    table2.workload = WorkloadKind::kEqual;
    specs.push_back(table2);

    ExperimentSpec table3;
    table3.id = "table3";
    table3.title = "Table 3: query time (ms), random workload, small graphs";
    table3.shape_note =
        "oracles slightly slower than on the equal load (negative queries "
        "scan whole labels); PT still fastest; GL improves on "
        "mostly-negative load";
    table3.metric = Metric::kQueryMillis;
    table3.workload = WorkloadKind::kRandom;
    specs.push_back(table3);

    ExperimentSpec table4;
    table4.id = "table4";
    table4.title = "Table 4: construction time (ms), small graphs";
    table4.shape_note =
        "KR and 2HOP slowest (vertex-cover/set-cover + TC materialization); "
        "INT/PW8 fastest; DL ~20x faster than 2HOP and comparable to INT; "
        "HL ~5x faster than 2HOP; TF and PL between DL and HL";
    table4.metric = Metric::kConstructionMillis;
    // 2HOP on arxiv needs ~150s (the paper's own Table 4 reports 131.9s for
    // it); give the construction table enough budget to show that number.
    table4.budget_seconds_override = 200;
    specs.push_back(table4);

    ExperimentSpec table5;
    table5.id = "table5";
    table5.title =
        "Table 5: query time (ms per 100k), equal workload, large graphs";
    table5.shape_note =
        "reachability oracles (DL/HL/TF) fastest; TC compression (INT/PW8) "
        "slows as closures grow; PT/KR/2HOP fail on most large graphs; "
        "GL slowest on positive-heavy loads";
    table5.metric = Metric::kQueryMillis;
    table5.workload = WorkloadKind::kEqual;
    table5.large = true;
    specs.push_back(table5);

    ExperimentSpec table6;
    table6.id = "table6";
    table6.title =
        "Table 6: query time (ms per 100k), random workload, large graphs";
    table6.shape_note =
        "same ordering as Table 5; oracle scans full labels on negatives "
        "but stays fastest; GL's interval pruning helps on mostly-negative "
        "load";
    table6.metric = Metric::kQueryMillis;
    table6.workload = WorkloadKind::kRandom;
    table6.large = true;
    specs.push_back(table6);

    ExperimentSpec table7;
    table7.id = "table7";
    table7.title = "Table 7: construction time (ms), large graphs";
    table7.shape_note =
        "DL comparable to the fastest methods and finishes everywhere; HL "
        "finishes where 2HOP cannot; 2HOP/KR/PT hit the budget on most "
        "graphs; GL always finishes";
    table7.metric = Metric::kConstructionMillis;
    table7.large = true;
    specs.push_back(table7);

    ExperimentSpec fig3;
    fig3.id = "fig3";
    fig3.title = "Figure 3: index size (integers), small graphs";
    fig3.shape_note =
        "PW8/INT smallest; DL consistently <= 2HOP (the paper's surprise "
        "result, attributed to non-redundancy); HL comparable to 2HOP; "
        "DL and HL < TF; GL = 2*k*n by construction";
    fig3.metric = Metric::kIndexIntegers;
    specs.push_back(fig3);

    ExperimentSpec fig4;
    fig4.id = "fig4";
    fig4.title = "Figure 4: index size (integers), large graphs";
    fig4.shape_note =
        "DL smaller than HL and close to (or better than) 2HOP where 2HOP "
        "runs; PW8/INT small where closures compress; GL/KR larger; TF "
        "slightly above DL";
    fig4.metric = Metric::kIndexIntegers;
    fig4.large = true;
    specs.push_back(fig4);

    // Beyond the paper: serving-layer throughput. The oracle is built once
    // inside reach_serve's server and the whole workload travels as one
    // BATCH frame, so the cell measures the amortized-serving regime the
    // ROADMAP targets rather than in-process query latency.
    ExperimentSpec serve;
    serve.id = "serve_quick";
    serve.title =
        "Serve: batched loopback throughput (queries/s), small graphs";
    serve.shape_note =
        "one build amortizes across the batch and the server executes each "
        "frame grouped by source vertex (answers stay in arrival order); "
        "label-scan methods (DL/HL) sustain the highest QPS, index-free "
        "BFS pays per-query traversal and serializes behind the "
        "online-search query lock";
    serve.kind = ExperimentKind::kServe;
    serve.metric = Metric::kServeQps;
    serve.workload = WorkloadKind::kEqual;
    serve.num_queries_override = 10000;
    serve.dataset_subset = {"arxiv", "amaze", "kegg"};
    serve.default_methods = {"DL", "HL", "INT", "BFS"};
    specs.push_back(serve);

    // Beyond the paper: the in-process query hot path in ns/query, on the
    // three biggest small-tier graphs. This is the cell the sealed-CSR
    // label layout and the adaptive intersection kernel move; the quick
    // baseline archives it so a PR that regresses the hot path shows up
    // in the JSON diff.
    ExperimentSpec query_quick;
    query_quick.id = "query_quick";
    query_quick.title =
        "Query: ns/query, sealed labels, largest small graphs";
    query_quick.shape_note =
        "flat CSR labels + adaptive intersection: DL fastest (total-order "
        "keys make the O(1) range rejection fire on most negatives); HL/TF "
        "close behind; PL pays the full distance merge";
    query_quick.metric = Metric::kQueryNanos;
    query_quick.workload = WorkloadKind::kEqual;
    query_quick.dataset_subset = {"arxiv", "human", "p2p"};
    query_quick.default_methods = {"DL", "HL", "TF", "PL"};
    specs.push_back(query_quick);

    // Beyond the paper: the O'Reach-style O(1) pre-filter tier
    // (core/prefilter.h) across negative-heavy / mixed / positive-heavy
    // query mixes. Each method appears bare and wrapped; the wrapped
    // column's note carries the per-mix prefilter hit rate.
    ExperimentSpec prefilter;
    prefilter.id = "prefilter_quick";
    prefilter.title =
        "Prefilter: ns/query, bare vs wrapped oracle, per query mix";
    prefilter.shape_note =
        "on the negative-heavy mix the O(1) stages resolve >=80% of "
        "queries before the labels are touched and wrapped DL beats bare "
        "DL; the edge narrows as the positive fraction grows (positives "
        "fall through to the support stage and the fallback more often)";
    prefilter.kind = ExperimentKind::kPrefilter;
    prefilter.metric = Metric::kQueryNanos;
    prefilter.dataset_subset = {"arxiv", "human", "p2p"};
    prefilter.default_methods = {"DL", "HL"};
    specs.push_back(prefilter);

    // Beyond the paper: the cold-load path at the paper's original sizes
    // (the xl tier, 1.6M-16.1M edges). This is the cell the mmap-backed
    // zero-copy load path moves; the quick baseline archives it so a PR
    // that regresses the load path shows up in the JSON diff. Note the
    // quick budgets (5 s / 20M integers) cannot build the 10^7-edge
    // instances — those rows record honest DNFs under --quick, and the
    // full-budget run shows the headline gap on uniprotenc_100m_full.
    ExperimentSpec load;
    load.id = "load_quick";
    load.title =
        "Load: cold snapshot load (ms), file read vs mmap, xl tier";
    load.shape_note =
        "both arms serve the snapshot bytes in place and validate only "
        "the offsets; the owned arm first reads the whole file into "
        "memory, so it scales with index bytes, while the mapped arm "
        "touches nothing else, staying O(index pages touched) with ~0 "
        "rss_kb growth";
    load.kind = ExperimentKind::kLoad;
    load.metric = Metric::kLoadMillis;
    load.large = true;
    // DL on the 16M-vertex star forest needs more than the large tier's
    // default 25 s; the load arms themselves are sub-second.
    load.budget_seconds_override = 120;
    load.num_queries_override = 10000;
    load.default_methods = {"DL"};
    specs.push_back(load);

    return specs;
  }();
  return kRegistry;
}

std::vector<std::string> ExperimentIds() {
  std::vector<std::string> ids;
  for (const ExperimentSpec& spec : ExperimentRegistry()) {
    ids.push_back(spec.id);
  }
  return ids;
}

StatusOr<ExperimentSpec> FindExperiment(const std::string& id) {
  for (const ExperimentSpec& spec : ExperimentRegistry()) {
    if (spec.id == id) return spec;
  }
  return Status::NotFound("unknown experiment '" + id +
                          "'; known: " + JoinNames(ExperimentIds()));
}

BenchConfig DefaultConfigFor(const ExperimentSpec& spec) {
  BenchConfig config =
      spec.large ? LargeTableDefaults() : SmallTableDefaults();
  if (spec.budget_seconds_override > 0) {
    config.build_time_budget_seconds = spec.budget_seconds_override;
  }
  if (spec.num_queries_override > 0) {
    config.num_queries = spec.num_queries_override;
  }
  return config;
}

std::vector<DatasetSpec> DatasetsFor(const ExperimentSpec& spec) {
  const std::vector<DatasetSpec>& tier =
      spec.kind == ExperimentKind::kLoad
          ? XlDatasets()
          : (spec.large ? LargeDatasets() : SmallDatasets());
  if (spec.dataset_subset.empty()) return tier;
  std::vector<DatasetSpec> subset;
  for (const DatasetSpec& candidate : tier) {
    if (std::find(spec.dataset_subset.begin(), spec.dataset_subset.end(),
                  candidate.name) != spec.dataset_subset.end()) {
      subset.push_back(candidate);
    }
  }
  return subset;
}

bool ExperimentCoversDataset(const ExperimentSpec& spec,
                             const std::string& dataset) {
  if (spec.kind == ExperimentKind::kInventory) return true;
  for (const DatasetSpec& candidate : DatasetsFor(spec)) {
    if (candidate.name == dataset) return true;
  }
  return false;
}

RunCache::RunCache() = default;
RunCache::~RunCache() = default;

std::string RunCache::BuildKey(const std::string& dataset,
                               const std::string& method,
                               const BuildBudget& budget) {
  return dataset + "|" + method + "|" + std::to_string(budget.max_seconds) +
         "|" + std::to_string(budget.max_index_integers);
}

const BuildStats* RunCache::FindBuild(const std::string& dataset,
                                      const std::string& method,
                                      const BuildBudget& budget) const {
  const auto it = stats_.find(BuildKey(dataset, method, budget));
  return it == stats_.end() ? nullptr : &it->second;
}

void RunCache::InsertBuild(const std::string& dataset,
                           const std::string& method,
                           const BuildBudget& budget,
                           const BuildStats& stats) {
  stats_.emplace(BuildKey(dataset, method, budget), stats);
}

const ReachabilityOracle* RunCache::TruthOracle(const std::string& dataset,
                                                const Digraph& graph,
                                                int threads) {
  const auto it = truths_.find(dataset);
  if (it != truths_.end()) return it->second.get();
  BuildOptions options;
  options.threads = threads;
  auto truth = std::make_unique<DistributionLabelingOracle>();
  if (!truth->Build(graph, options).ok()) {
    truth.reset();  // Cache the failure too.
  }
  return truths_.emplace(dataset, std::move(truth)).first->second.get();
}

const Digraph& RunCache::Graph(const DatasetSpec& spec) {
  auto it = graphs_.find(spec.name);
  if (it == graphs_.end()) {
    it = graphs_.emplace(spec.name, MakeDataset(spec)).first;
  }
  return it->second;
}

void RunExperiment(const ExperimentSpec& spec, const BenchConfig& config,
                   Reporter* reporter, RunCache* cache) {
  switch (spec.kind) {
    case ExperimentKind::kInventory:
      RunInventory(spec, config, reporter, cache);
      return;
    case ExperimentKind::kServe:
      RunServe(spec, config, reporter, cache);
      return;
    case ExperimentKind::kPrefilter:
      RunPrefilter(spec, config, reporter, cache);
      return;
    case ExperimentKind::kLoad:
      RunLoad(spec, config, reporter, cache);
      return;
    case ExperimentKind::kTable:
      RunTable(spec, config, reporter, cache);
      return;
  }
}

}  // namespace bench
}  // namespace reach
