// Ablation for Section 5.2's "Vertex Order" design choice: DL's label size
// and build time under the paper's degree-product rank, the library's
// default sketched cover-per-cost rank, and random, topological and
// adversarial (ascending-rank) orders. The rank function is what makes DL's
// labeling smaller than set-cover 2HOP.

#include <cstdio>
#include <optional>

#include "bench/harness.h"
#include "datasets/registry.h"
#include "core/distribution_labeling.h"
#include "query/workload.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace reach;
  using namespace reach::bench;
  int exit_code = 0;
  const std::optional<BenchConfig> parsed =
      ParseAblationArgs(argc, argv, &exit_code);
  if (!parsed) return exit_code;
  const BenchConfig& config = *parsed;

  std::printf("== Ablation: DL vertex-order policy ==\n");
  std::printf(
      "paper_shape: the paper's (|Nout|+1)*(|Nin|+1) rank (degree_product) "
      "beats topological and ascending-rank orders on every dataset and a "
      "random order on amaze and citeseer; on arxiv and the human forest a "
      "random order labels smaller. cover_per_cost, the default, ranks hops "
      "by the octave of a sketched |anc|*|desc|/(|anc|+|desc|) with the "
      "paper's rank as tie-break: the smallest labels of all five orders "
      "on all four datasets, about 3x below degree_product on arxiv\n\n");
  std::printf("%-14s %-24s %14s %12s %14s\n", "dataset", "order",
              "label integers", "build ms", "query ms/100k");

  const DistributionOrder orders[] = {
      DistributionOrder::kDegreeProduct, DistributionOrder::kCoverPerCost,
      DistributionOrder::kRandom, DistributionOrder::kTopological,
      DistributionOrder::kReverseDegreeProduct};

  for (const char* name : {"arxiv", "amaze", "human", "citeseer"}) {
    auto spec = FindDataset(name);
    if (!spec.ok()) continue;
    Digraph g = MakeDataset(*spec);
    // One acyclicity proof per dataset, shared by every build below.
    const StatusOr<Dag> dag = Dag::Check(g);
    if (!dag.ok()) continue;

    // One workload per dataset, shared by all orders.
    DistributionLabelingOracle truth;
    if (!truth.Build(*dag).ok()) continue;
    WorkloadOptions w_options;
    w_options.num_queries = std::min<size_t>(config.num_queries, 50000);
    Workload workload = MakeEqualWorkload(g, truth, w_options);

    for (DistributionOrder order : orders) {
      DistributionOptions options;
      options.order = order;
      DistributionLabelingOracle oracle(options);
      if (!oracle.Build(*dag).ok()) {
        std::printf("%-14s %-24s %14s\n", name,
                    DistributionOrderName(order).c_str(), "--");
        continue;
      }
      const double build_ms = oracle.build_stats().build_millis;
      Timer query_timer;
      size_t hits = 0;
      for (const Query& q : workload.queries) {
        hits += oracle.Reachable(q.from, q.to);
      }
      const double query_ms = query_timer.ElapsedMillis() * 100000.0 /
                              workload.queries.size();
      // Consuming `hits` keeps the query loop alive under -O2.
      std::printf("%-14s %-24s %14llu %12.1f %14.1f%s\n", name,
                  DistributionOrderName(order).c_str(),
                  static_cast<unsigned long long>(oracle.IndexSizeIntegers()),
                  build_ms, query_ms, hits == SIZE_MAX ? "!" : "");
    }
  }
  std::printf("\n");
  return 0;
}
