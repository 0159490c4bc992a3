#include "core/oracle.h"

#include "util/thread_pool.h"
#include "util/timer.h"

namespace reach {

Status ReachabilityOracle::Build(const Digraph& dag,
                                 const BuildOptions& options) {
  const StatusOr<Dag> proven = Dag::Check(dag);
  if (proven.ok()) return Build(*proven, options);
  build_stats_.failure_reason = proven.status().message();
  return proven.status();
}

Status ReachabilityOracle::Build(const Dag& dag, const BuildOptions& options) {
  build_threads_ =
      options.threads > 0 ? options.threads : DefaultBuildThreads();
  // Reset before BuildIndex, which records its phase timers here.
  build_stats_ = BuildStats();
  Timer timer;
  Status status = BuildIndex(dag);
  build_stats_.build_millis = timer.ElapsedMillis();
  // The oracles poll the time budget only at their checkpoints, so work
  // after the last one escapes it. An index-free oracle (the online
  // searchers) built nothing the budget governs.
  if (status.ok() && budget_.max_seconds > 0 &&
      build_stats_.build_millis > budget_.max_seconds * 1e3 &&
      IndexSizeIntegers() > 0) {
    status = Status::ResourceExhausted(name() +
                                       " construction exceeded time budget");
  }
  build_stats_.threads = build_threads_;
  build_stats_.ok = status.ok();
  if (status.ok()) {
    build_stats_.index_integers = IndexSizeIntegers();
    build_stats_.index_bytes = IndexSizeBytes();
  } else {
    build_stats_.budget_exceeded = status.IsResourceExhausted();
    build_stats_.failure_reason = status.message();
  }
  AnnotateBuildStats(build_stats_);
  return status;
}

Status ReachabilityOracle::LoadMapped(const Digraph& dag,
                                      MappedRegion region) {
  build_threads_ = 1;  // A mapped restore is one sequential validation.
  Timer timer;
  const Status status = LoadIndexMapped(dag, std::move(region));
  build_stats_ = BuildStats();
  build_stats_.build_millis = timer.ElapsedMillis();
  build_stats_.threads = build_threads_;
  build_stats_.ok = status.ok();
  if (status.ok()) {
    build_stats_.index_integers = IndexSizeIntegers();
    build_stats_.index_bytes = IndexSizeBytes();
  } else {
    build_stats_.failure_reason = status.message();
  }
  AnnotateBuildStats(build_stats_);
  return status;
}

Status ReachabilityOracle::SaveIndex(std::ostream&) const {
  return Status::NotSupported(name() + " does not support index snapshots");
}

Status ReachabilityOracle::LoadIndexMapped(const Digraph&, MappedRegion) {
  return Status::NotSupported(name() + " does not support index snapshots");
}

}  // namespace reach
