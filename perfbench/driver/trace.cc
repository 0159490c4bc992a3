#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::vector<Span> MergeLogs(const std::vector<const SpanLog*>& logs) {
  std::vector<Span> merged;
  for (const SpanLog* log : logs) {
    merged.insert(merged.end(), log->spans().begin(), log->spans().end());
  }
  return merged;
}

std::map<std::string, double> SelfMillisByLayer(
    const std::vector<Span>& spans) {
  // Children's intervals per parent, clipped to the parent and merged, so
  // concurrent children (two client threads under one phase span) are not
  // subtracted twice.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, double> self_ms;
  for (const Span& span : spans) {
    int64_t covered = 0;
    const auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = span.start_ns;
      for (const auto& [start, end] : intervals) {
        const int64_t from = std::max(start, cursor);
        const int64_t to = std::min(end, span.end_ns);
        if (to > from) {
          covered += to - from;
          cursor = to;
        }
      }
    }
    const std::string name = span.name;
    const std::string layer = name.substr(0, name.find('.'));
    self_ms[layer] +=
        static_cast<double>(span.end_ns - span.start_ns - covered) / 1e6;
  }
  return self_ms;
}

bool WriteSpansCsv(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  int64_t origin = 0;
  if (!spans.empty()) {
    origin = std::min_element(spans.begin(), spans.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  std::fprintf(file, "id,parent,request,name,start_ns,end_ns\n");
  for (const Span& span : spans) {
    std::fprintf(file, "%llu,%llu,%llu,%s,%lld,%lld\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request), span.name,
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
