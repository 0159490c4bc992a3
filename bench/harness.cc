#include "bench/harness.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

#include "baselines/factory.h"
#include "bench/experiments.h"
#include "datasets/registry.h"
#include "util/strict_parse.h"

namespace reach {
namespace bench {

namespace {

std::vector<std::string> SplitCsv(const std::string& value) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= value.size()) {
    const size_t comma = value.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(value.substr(start));
      break;
    }
    out.push_back(value.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

std::vector<std::string> KnownDatasetNames() {
  std::vector<std::string> names;
  for (const DatasetSpec& spec : SmallDatasets()) names.push_back(spec.name);
  for (const DatasetSpec& spec : LargeDatasets()) names.push_back(spec.name);
  return names;
}

Status ParseUintValue(const std::string& flag, const std::string& text,
                      uint64_t* out) {
  if (!ParseDecimalUint64(text, out)) {
    return Status::InvalidArgument(
        flag + " expects a non-negative integer, got '" + text + "'");
  }
  return Status::OK();
}

/// Strict full-string parse of a non-negative finite decimal double flag
/// value: no sign, whitespace, or strtod's hex-float/nan/inf forms.
Status ParseDoubleValue(const std::string& flag, const std::string& text,
                        double* out) {
  const Status bad = Status::InvalidArgument(
      flag + " expects a non-negative number, got '" + text + "'");
  // The +/- are admitted for exponents ("2.5e+3") only, not as a leading
  // sign; the charset also excludes strtod's whitespace/hex/nan/inf forms.
  if (text.empty() ||
      text.find_first_not_of("0123456789.eE+-") != std::string::npos ||
      text[0] == '+' || text[0] == '-') {
    return bad;
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(parsed) || parsed < 0) {
    return bad;
  }
  *out = parsed;
  return Status::OK();
}

Status ValidateNames(const std::string& flag,
                     const std::vector<std::string>& requested,
                     const std::vector<std::string>& known) {
  for (const std::string& name : requested) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument("unknown name '" + name + "' in " + flag +
                                     "; known: " + JoinNames(known));
    }
  }
  return Status::OK();
}

}  // namespace

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

std::string MetricName(Metric metric) {
  switch (metric) {
    case Metric::kQueryMillis:
      return "query_ms_per_100k";
    case Metric::kConstructionMillis:
      return "construction_ms";
    case Metric::kIndexIntegers:
      return "index_integers";
  }
  return "unknown";
}

std::string WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kEqual:
      return "equal";
    case WorkloadKind::kRandom:
      return "random";
    case WorkloadKind::kNone:
      return "none";
  }
  return "unknown";
}

BenchConfig SmallTableDefaults() {
  BenchConfig config;
  config.num_queries = 100000;
  config.build_time_budget_seconds = 60;
  config.build_index_budget_integers = 0;
  return config;
}

BenchConfig LargeTableDefaults() {
  BenchConfig config;
  config.num_queries = 10000;  // Normalized to ms/100k queries when printed.
  config.build_time_budget_seconds = 25;
  // ~600 MB of 32-bit integers; emulates the paper's 32 GB / 24 h budget at
  // laptop scale and produces the "--" entries of Tables 5-7.
  config.build_index_budget_integers = 150000000;
  return config;
}

StatusOr<BenchOverrides> ParseArgs(int argc, char** argv,
                                   bool allow_experiments) {
  BenchOverrides overrides;
  // Help preempts validation: a user asking for usage must get it (and
  // exit 0) even when other flags on the line are malformed.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      overrides.help = true;
      return overrides;
    }
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      overrides.quick = true;
    } else if (arg.rfind("--queries=", 0) == 0) {
      uint64_t value = 0;
      REACH_RETURN_IF_ERROR(
          ParseUintValue("--queries", arg.substr(10), &value));
      if (value == 0) {
        return Status::InvalidArgument("--queries must be >= 1");
      }
      overrides.num_queries = static_cast<size_t>(value);
    } else if (arg.rfind("--datasets=", 0) == 0) {
      overrides.datasets = SplitCsv(arg.substr(11));
      REACH_RETURN_IF_ERROR(ValidateNames("--datasets", overrides.datasets,
                                          KnownDatasetNames()));
    } else if (arg.rfind("--methods=", 0) == 0) {
      overrides.methods = SplitCsv(arg.substr(10));
      REACH_RETURN_IF_ERROR(
          ValidateNames("--methods", overrides.methods, AllOracleNames()));
    } else if (arg.rfind("--budget-seconds=", 0) == 0) {
      double value = 0;
      REACH_RETURN_IF_ERROR(
          ParseDoubleValue("--budget-seconds", arg.substr(17), &value));
      overrides.budget_seconds = value;
    } else if (arg.rfind("--threads=", 0) == 0) {
      uint64_t value = 0;
      REACH_RETURN_IF_ERROR(
          ParseUintValue("--threads", arg.substr(10), &value));
      if (value < 1 || value > 1024) {
        return Status::InvalidArgument("--threads must be in [1, 1024]");
      }
      overrides.threads = static_cast<int>(value);
    } else if (arg.rfind("--format=", 0) == 0) {
      const std::string format = arg.substr(9);
      if (format != "text" && format != "csv" && format != "json") {
        return Status::InvalidArgument(
            "--format must be text, csv, or json; got '" + format + "'");
      }
      overrides.format = format;
    } else if (arg.rfind("--out=", 0) == 0) {
      overrides.out_path = arg.substr(6);
      if (overrides.out_path.empty()) {
        return Status::InvalidArgument("--out requires a path");
      }
    } else if (allow_experiments && arg.rfind("--experiments=", 0) == 0) {
      overrides.experiments = SplitCsv(arg.substr(14));
      REACH_RETURN_IF_ERROR(ValidateNames("--experiments",
                                          overrides.experiments,
                                          ExperimentIds()));
    } else {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    }
  }
  return overrides;
}

BenchConfig ApplyOverrides(const BenchConfig& defaults,
                           const BenchOverrides& overrides) {
  BenchConfig config = defaults;
  if (overrides.quick) {
    config.quick = true;
    config.num_queries = 2000;
    config.build_time_budget_seconds = 5;
    if (config.build_index_budget_integers == 0 ||
        config.build_index_budget_integers > 20000000) {
      config.build_index_budget_integers = 20000000;
    }
  }
  // Explicit flags beat both the tier defaults and the --quick values.
  if (overrides.num_queries) config.num_queries = *overrides.num_queries;
  if (overrides.budget_seconds) {
    config.build_time_budget_seconds = *overrides.budget_seconds;
  }
  if (overrides.threads) config.threads = *overrides.threads;
  config.datasets = overrides.datasets;
  config.methods = overrides.methods;
  config.format = overrides.format;
  config.out_path = overrides.out_path;
  return config;
}

std::optional<BenchConfig> ParseAblationArgs(int argc, char** argv,
                                             int* exit_code) {
  static const char kAblationUsage[] =
      "flags (the ablation's dataset/method matrix is fixed; output is a "
      "text table on stdout):\n"
      "  --quick       smoke mode (few queries)\n"
      "  --queries=N   queries per workload (positive integer)\n";
  const StatusOr<BenchOverrides> overrides =
      ParseArgs(argc, argv, /*allow_experiments=*/false);
  if (!overrides.ok()) {
    std::fprintf(stderr, "%s\n%s", overrides.status().message().c_str(),
                 kAblationUsage);
    *exit_code = 2;
    return std::nullopt;
  }
  if (overrides->help) {
    std::printf("%s", kAblationUsage);
    *exit_code = 0;
    return std::nullopt;
  }
  if (!overrides->datasets.empty() || !overrides->methods.empty() ||
      overrides->budget_seconds.has_value() ||
      overrides->threads.has_value() || overrides->format != "text" ||
      !overrides->out_path.empty()) {
    std::fprintf(stderr,
                 "ablation benches accept only --quick and --queries=\n%s",
                 kAblationUsage);
    *exit_code = 2;
    return std::nullopt;
  }
  return ApplyOverrides(SmallTableDefaults(), *overrides);
}

std::string UsageString(bool allow_experiments) {
  std::string usage =
      "flags:\n"
      "  --quick              smoke mode (few queries, tight budgets)\n"
      "  --queries=N          queries per workload (positive integer)\n"
      "  --datasets=a,b,c     restrict to named datasets\n"
      "  --methods=DL,HL      restrict to named methods\n"
      "  --budget-seconds=S   build time budget (0 = unlimited)\n"
      "  --threads=N          construction worker threads (default: "
      "REACH_THREADS env, else hardware concurrency)\n"
      "  --format=FMT         text (default), csv, or json\n"
      "  --out=PATH           write the report to PATH instead of stdout\n";
  if (allow_experiments) {
    usage +=
        "  --experiments=a,b    restrict to named experiments (default: "
        "all)\n  known experiments: " +
        JoinNames(ExperimentIds()) + "\n";
  }
  usage += "  known datasets: " + JoinNames(KnownDatasetNames()) +
           "\n  known methods: " + JoinNames(AllOracleNames()) + "\n";
  return usage;
}

}  // namespace bench
}  // namespace reach
