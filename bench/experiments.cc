#include "bench/experiments.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "baselines/factory.h"
#include "bench/reporter.h"
#include "core/distribution_labeling.h"
#include "query/workload.h"
#include "util/timer.h"

namespace reach {
namespace bench {

namespace {

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

std::vector<std::string> MethodsFor(const BenchConfig& config) {
  if (config.methods.empty()) return PaperOracleNames();
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
  const std::vector<std::string> methods = MethodsFor(config);
  // Query tables time Reachable() over a workload; the others only need
  // the build stats.
  const bool timed_queries = spec.metric == Metric::kQueryMillis;

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
    if (timed_queries) {
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
      if (cached != nullptr && (!cached->ok || !timed_queries)) {
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
      if (!status.ok() || !timed_queries) {
        reporter->AddRecord(StatsRecord(spec, dataset.name, method, stats));
        continue;
      }

      RunRecord record = StatsRecord(spec, dataset.name, method, stats);
      Timer query_timer;
      size_t hits = 0;
      for (const Query& q : workload.queries) {
        hits += oracle->Reachable(q.from, q.to);
      }
      record.value = query_timer.ElapsedMillis() * 100000.0 /
                     static_cast<double>(workload.queries.size());
      // Guard against dead-code elimination of the query loop.
      if (hits == SIZE_MAX) record.note.push_back('!');
      reporter->AddRecord(record);
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
  return config;
}

std::vector<DatasetSpec> DatasetsFor(const ExperimentSpec& spec) {
  return spec.large ? LargeDatasets() : SmallDatasets();
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
    case ExperimentKind::kTable:
      RunTable(spec, config, reporter, cache);
      return;
  }
}

}  // namespace bench
}  // namespace reach
