// Per-layer measurements of the traced run. Each probe times the calls into
// one layer's public functions over the workload's own pairs and index, so
// adjacent differences attribute a query's cost to the layer it is spent in.

#ifndef PERFBENCH_DRIVER_PROBES_H_
#define PERFBENCH_DRIVER_PROBES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/reachability.h"
#include "graph/digraph.h"
#include "trace.h"

namespace perfbench {

struct ProbeInputs {
  const WorkloadSpec* spec = nullptr;
  const reach::Digraph* graph = nullptr;
  std::shared_ptr<const reach::ReachabilityIndex> index;
  const std::vector<Pair>* pool = nullptr;
  std::string dir;         // Scratch space for snapshot probes.
  SpanLog* log = nullptr;  // Receives one span per probe.
  uint64_t parent = 0;     // Parent span of the probes.
};

/// Runs every probe, adding its metrics to `result`. A wrong answer in any
/// probe counts as a failure of the run.
void RunProbes(const ProbeInputs& in, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_PROBES_H_
