// perfbench_driver: the compiled half of the repository benchmark.
//
//   perfbench_driver prep --workload W --seed S --dir D
//       Generates the workload's inputs from the seed into D (untimed).
//   perfbench_driver run --workload W --seed S --dir D --seconds T
//                        --trace 0|1 [--spans FILE]
//       Measures the workload over D's inputs and prints one JSON object:
//       {"workload", "seed", "trace", "attempted", "failed",
//        "failed_checks": [{"name", "detail"}],
//        "metrics": {name: {"value", "unit", "samples"}}}
//
// perfbench/run.py drives both and applies the BENCHMARK.json contract.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common.h"
#include "prep.h"
#include "util/json_writer.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver prep|run --workload W --seed S "
               "--dir D [--seconds T --trace 0|1 --spans FILE]\n");
  return 2;
}

std::string ToJson(const perfbench::RunResult& result,
                   const std::string& workload, uint64_t seed, bool trace) {
  std::string out;
  reach::JsonWriter json(&out, /*indent=*/0);
  json.BeginObject();
  json.KeyString("workload", workload);
  json.KeyUint("seed", seed);
  json.KeyBool("trace", trace);
  json.KeyUint("attempted", result.attempted);
  json.KeyUint("failed", result.failed);
  json.Key("failed_checks");
  json.BeginArray();
  for (const auto& [name, detail] : result.failed_checks) {
    json.BeginObject();
    json.KeyString("name", name);
    json.KeyString("detail", detail);
    json.EndObject();
  }
  json.EndArray();
  json.Key("metrics");
  json.BeginObject();
  for (const auto& [name, metric] : result.metrics) {
    json.Key(name);
    json.BeginObject();
    json.KeyDouble("value", metric.value);
    json.KeyString("unit", metric.unit);
    json.KeyUint("samples", metric.samples);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  const perfbench::WorkloadSpec* spec =
      perfbench::FindWorkload(flags["workload"]);
  if (spec == nullptr || flags["dir"].empty() || flags["seed"].empty()) {
    return Usage();
  }
  const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  if (mode == "prep") return perfbench::RunPrep(*spec, seed, flags["dir"]);
  if (mode != "run") return Usage();

  perfbench::RunOptions options;
  options.spec = spec;
  options.dir = flags["dir"];
  options.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  options.trace = flags["trace"] == "1";
  options.spans_path = flags["spans"].empty() ? options.dir + "/spans.csv"
                                              : flags["spans"];
  if (!(options.seconds > 0)) return Usage();
  const perfbench::RunResult result = perfbench::RunWorkload(options);
  std::printf("%s\n", ToJson(result, spec->name, seed, options.trace).c_str());
  return result.failed_checks.empty() && result.failed == 0 ? 0 : 1;
}
