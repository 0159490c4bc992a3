// In-memory span recorder for the traced benchmark run. Spans are recorded
// from the benchmark's own code around the calls it makes into each library
// layer (graph, core, util, server, snapshot); nothing inside the library is
// instrumented. Each thread owns one SpanLog, so recording takes no lock; the
// logs are merged and written out once the run has finished.

#ifndef PERFBENCH_DRIVER_TRACE_H_
#define PERFBENCH_DRIVER_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock; every span and latency uses this base.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0: a root span.
  uint64_t request = 0;  // Shared by the spans of one request; 0: none.
  const char* name = "";  // Static string; its prefix before '.' is the layer.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans. Not thread-safe: each thread records into its own.
class SpanLog {
 public:
  /// `thread` tags the ids so logs of different threads never collide.
  SpanLog(uint32_t thread, size_t capacity)
      : thread_(thread), capacity_(capacity) {
    spans_.reserve(capacity);
  }

  uint64_t NextId() { return (static_cast<uint64_t>(thread_) << 40) | ++next_; }

  void Push(const Span& span) {
    if (spans_.size() < capacity_) {
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  uint32_t thread_;
  size_t capacity_;
  uint64_t next_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Records one span over its own lifetime. A null log records nothing, so
/// untraced code paths pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : log_(log) {
    if (log_ == nullptr) return;
    span_.id = log_->NextId();
    span_.parent = parent;
    span_.request = request;
    span_.name = name;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    span_.end_ns = NowNs();
    log_->Push(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when not recording), for use as a child's parent.
  uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

/// Merged spans of every log.
std::vector<Span> MergeLogs(const std::vector<const SpanLog*>& logs);

/// Self time per layer in milliseconds: each span's duration minus the part
/// of its interval its children cover, summed by the name prefix before the
/// first '.'.
std::map<std::string, double> SelfMillisByLayer(const std::vector<Span>& spans);

/// Writes the spans as CSV (id,parent,request,name,start_ns,end_ns) with
/// start times relative to the earliest span. Returns false on I/O error.
bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TRACE_H_
