// Shared configuration and command-line parsing for the paper-reproduction
// benchmarks. Experiment definitions live in bench/experiments.h (one
// ExperimentSpec per table/figure of Section 6); result presentation lives
// in bench/reporter.h (text / CSV / JSON). This header owns what is common
// to both: the run configuration, its defaults per dataset tier, and the
// strictly-validated flag parser every bench binary shares.

#ifndef REACH_BENCH_HARNESS_H_
#define REACH_BENCH_HARNESS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace reach {
namespace bench {

/// What a table cell measures.
enum class Metric {
  kQueryMillis,         // Total ms normalized to 100,000 queries.
  kConstructionMillis,  // Index build wall time.
  kIndexIntegers,       // Stored integers (Figures 3/4).
};

/// Which workload drives kQueryMillis.
enum class WorkloadKind { kEqual, kRandom, kNone };

/// Stable machine-readable metric name ("query_ms_per_100k", ...).
std::string MetricName(Metric metric);

/// Stable machine-readable workload name ("equal", "random", "none").
std::string WorkloadName(WorkloadKind kind);

/// "a, b, c" — for known-name listings in error/usage messages.
std::string JoinNames(const std::vector<std::string>& names);

/// Fully-resolved run configuration for one experiment.
struct BenchConfig {
  size_t num_queries = 100000;  // The paper times 100,000 queries.
  double build_time_budget_seconds = 120;
  uint64_t build_index_budget_integers = 0;  // 0 = unlimited (small tables).
  std::vector<std::string> datasets;         // Empty = all in the table.
  std::vector<std::string> methods;          // Empty = paper columns.
  bool quick = false;
  // Construction threads (BuildOptions::threads): 0 = default (REACH_THREADS
  // env var, else hardware concurrency); affects build wall time only —
  // index bytes and query answers are thread-count-invariant.
  int threads = 0;
  std::string format = "text";  // "text" | "csv" | "json".
  std::string out_path;         // Empty = stdout.
};

/// What the command line explicitly asked for, before the per-experiment
/// defaults are known. bench_all spans experiments with different tier
/// defaults, so parsing and default-resolution are separate steps:
/// ParseArgs() -> one BenchOverrides; ApplyOverrides() per experiment.
struct BenchOverrides {
  bool quick = false;
  bool help = false;
  std::optional<size_t> num_queries;
  std::optional<double> budget_seconds;
  std::optional<int> threads;
  std::vector<std::string> datasets;
  std::vector<std::string> methods;
  std::vector<std::string> experiments;  // bench_all only.
  std::string format = "text";
  std::string out_path;
};

/// Parses and validates flags:
///   --quick              smoke mode (few queries, tight budgets)
///   --queries=N          queries per workload (positive integer)
///   --datasets=a,b,c     restrict to named datasets (validated)
///   --methods=DL,HL      restrict to named methods (validated)
///   --budget-seconds=S   build time budget (non-negative; 0 = unlimited)
///   --threads=N          construction worker threads (positive integer)
///   --format=FMT         text (default), csv, or json
///   --out=PATH           write the report to PATH instead of stdout
///   --experiments=a,b    (bench_all only) restrict to named experiments
///   --help, -h           sets .help; caller prints UsageString()
/// Help is a first-class path: when --help/-h appears anywhere on the
/// command line, ParseArgs returns immediately with only .help set — other
/// flags are not validated, so `tool --queries=bogus --help` still prints
/// usage and exits 0.
/// Otherwise unknown flags, malformed numbers, and unknown
/// dataset/method/experiment names yield InvalidArgument with a message
/// listing the valid spellings — a typo must never silently produce an
/// empty or partial table.
StatusOr<BenchOverrides> ParseArgs(int argc, char** argv,
                                   bool allow_experiments);

/// Resolves `overrides` against an experiment's defaults: tier defaults,
/// then --quick adjustments, then explicit flags (strongest).
BenchConfig ApplyOverrides(const BenchConfig& defaults,
                           const BenchOverrides& overrides);

/// Flag reference for error messages / --help.
std::string UsageString(bool allow_experiments);

/// Shared preamble for the ablation binaries, whose dataset/method matrix
/// is fixed and whose output is always a text table on stdout: only
/// --quick, --queries=N, and --help are meaningful, and every flag that
/// would otherwise be silently ignored (--datasets, --methods,
/// --budget-seconds, --format, --out) is rejected instead. Returns the
/// resolved config, or nullopt after printing help/error — in which case
/// the process should return `*exit_code`.
std::optional<BenchConfig> ParseAblationArgs(int argc, char** argv,
                                             int* exit_code);

/// Default configs for small-graph and large-graph tables.
BenchConfig SmallTableDefaults();
BenchConfig LargeTableDefaults();

}  // namespace bench
}  // namespace reach

#endif  // REACH_BENCH_HARNESS_H_
