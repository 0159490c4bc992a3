// Shared pieces of the benchmark driver: the workload catalogue, the
// generated-pairs file, order statistics, and the result record every
// workload fills in.

#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/digraph.h"

namespace perfbench {

/// One named workload: the dataset stand-in it runs on, the oracle under
/// test, and how its query pool is drawn.
struct WorkloadSpec {
  std::string name;
  std::string dataset;   // datasets/registry.h name.
  std::string method;    // Oracle under test (baselines/factory.h name).
  std::string truth;     // Independent oracle that labels the pool.
  bool equal_pool;       // 50/50 reachable pool; else uniform random pairs.
  size_t pool_size;      // Distinct pairs in the pool.
};

/// Null when `name` is not a known workload.
const WorkloadSpec* FindWorkload(const std::string& name);

/// A query pair with its ground-truth answer.
struct Pair {
  reach::Vertex u = 0;
  reach::Vertex v = 0;
  bool reachable = false;
};

/// Binary pairs file: "PBPAIRS1", u64 count, then count * (u32 u, u32 v,
/// u8 reachable). Returns false on I/O error or a malformed file.
bool WritePairs(const std::string& path, const std::vector<Pair>& pairs);
bool ReadPairs(const std::string& path, std::vector<Pair>* pairs);

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty input.
/// Takes a copy because it partially sorts.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// One reported number: value, unit, and how many samples it summarizes.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 1;
};

/// What a workload run reports. `attempted` counts operations (queries plus
/// RELOAD/SAVE requests); `failed` counts wrong answers, ERR lines, client
/// errors and failed RELOAD/SAVE; `checks` are pass/fail gates with detail.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, std::string>> failed_checks;

  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Records a gate; a false `ok` fails the run with `detail`.
  void Check(const std::string& name, bool ok, const std::string& detail) {
    if (!ok) failed_checks.emplace_back(name, detail);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
