// The measured run of one workload: set-up (repeated, median reported), a
// timed closed- or open-loop phase checked answer by answer against the
// truth labels, and, in the traced run, the per-layer probes.

#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <string>

#include "common.h"

namespace perfbench {

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  std::string dir;  // Holds what prep wrote; scratch for the run.
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // Traced run: where the span CSV goes.
};

/// Runs the workload. Untraced runs report end-to-end metrics; traced runs
/// alternate untraced and traced quarters of the timed phase (the qps
/// difference is the tracing overhead) and add the per-layer metrics.
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
