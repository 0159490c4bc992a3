#ifndef PERFBENCH_DRIVER_PREP_H_
#define PERFBENCH_DRIVER_PREP_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

/// Writes graph.txt, pairs.bin and (for the snapshot-served workload)
/// a.snap/b.snap into `dir`, all derived from `seed`. Returns the process
/// exit code.
int RunPrep(const WorkloadSpec& spec, uint64_t seed, const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_PREP_H_
