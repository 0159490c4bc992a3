#include "server/session.h"

#include <cstdio>

#include "core/prefilter.h"

namespace reach {
namespace server {

namespace {

void AppendKeyValue(std::string* out, const char* key, uint64_t value) {
  *out += key;
  *out += ' ';
  *out += std::to_string(value);
  *out += '\n';
}

}  // namespace

Session::State Session::Feed(std::string_view bytes, std::string* out) {
  if (state_ != State::kOpen) return state_;
  lines_.Append(bytes);
  while (state_ == State::kOpen) {
    const std::optional<std::string_view> line = lines_.NextLine();
    if (!line.has_value()) break;
    HandleLine(*line, out);
  }
  if (state_ == State::kOpen && lines_.overflowed()) {
    // Framing is lost: no newline within the cap. Tell the client why,
    // then drop the connection (continuing would misparse the stream).
    CountErrors(context_->stats->err_line_overflow, 1);
    *out += "ERR line exceeds " +
            std::to_string(context_->limits.max_line_bytes) +
            " bytes; closing\n";
    state_ = State::kClosed;
  }
  return state_;
}

void Session::HandleLine(std::string_view line, std::string* out) {
  if (batch_remaining_ > 0) {
    // Inside a BATCH frame every line is a query slot, parsed now and
    // executed when the frame is complete: the index is acquired once per
    // frame, never held across recv() calls.
    Slot& slot = slots_.emplace_back();
    slot.parsed = ParseQueryLine(line, &slot.u, &slot.v);
    if (--batch_remaining_ == 0) ExecuteSlots(out);
    return;
  }

  const Command command = ParseCommandLine(line, context_->limits);
  switch (command.type) {
    case CommandType::kQuery:
      slots_.push_back({command.u, command.v, true});
      ExecuteSlots(out);
      return;
    case CommandType::kBatch:
      context_->stats->batches.fetch_add(1, std::memory_order_relaxed);
      batch_remaining_ = command.batch_count;
      return;
    case CommandType::kStats:
      AppendStats(out);
      return;
    case CommandType::kPing:
      *out += "PONG\n";
      return;
    case CommandType::kReload:
      HandleReload(command.path, out);
      return;
    case CommandType::kSave:
      HandleSave(command.path, out);
      return;
    case CommandType::kShutdown:
      *out += "BYE\n";
      state_ = State::kShutdownRequested;
      return;
    case CommandType::kMalformed:
      CountErrors(context_->stats->err_parse, 1);
      *out += "ERR " + command.error + "\n";
      return;
  }
}

void Session::ExecuteSlots(std::string* out) {
  // One pinned index reference for the whole frame (not per slot): a RELOAD
  // published mid-frame takes effect on the next frame, and every slot of
  // one frame is answered against one coherent index. Slots run in arrival
  // order; grouping them by source vertex was measured to buy nothing.
  const std::shared_ptr<const ReachabilityIndex> index =
      context_->index->Acquire();
  const size_t vertices = context_->graph_vertices;
  uint64_t answered = 0;
  uint64_t parse_errors = 0;
  uint64_t range_errors = 0;
  for (const Slot& slot : slots_) {
    if (!slot.parsed) {
      ++parse_errors;
      *out += "ERR batch line: expected 'u v'\n";
      continue;
    }
    if (slot.u >= vertices || slot.v >= vertices) {
      ++range_errors;
      *out += "ERR vertex out of range\n";
      continue;
    }
    bool reachable;
    if (context_->query_mutex != nullptr) {
      MutexLock lock(*context_->query_mutex);
      reachable = index->Reachable(slot.u, slot.v);
    } else {
      reachable = index->Reachable(slot.u, slot.v);
    }
    ++answered;
    out->append(reachable ? "1\n" : "0\n", 2);
  }
  slots_.clear();
  ServerStats& stats = *context_->stats;
  stats.queries.fetch_add(answered, std::memory_order_relaxed);
  if (parse_errors > 0) CountErrors(stats.err_parse, parse_errors);
  if (range_errors > 0) CountErrors(stats.err_range, range_errors);
}

void Session::HandleReload(const std::string& path, std::string* out) {
  if (context_->reload == nullptr) {
    CountErrors(context_->stats->err_reload, 1);
    *out += "ERR RELOAD is not available on this server\n";
    return;
  }
  const Status status = context_->reload(path);
  if (!status.ok()) {
    // A failed reload leaves the live index untouched (the hook's
    // contract); the client learns why and the connection stays usable.
    CountErrors(context_->stats->err_reload, 1);
    *out += "ERR " + status.message() + "\n";
    return;
  }
  context_->stats->reloads.fetch_add(1, std::memory_order_relaxed);
  *out += "OK\n";
}

void Session::HandleSave(const std::string& path, std::string* out) {
  if (context_->save == nullptr) {
    CountErrors(context_->stats->err_save, 1);
    *out += "ERR SAVE is not available on this server\n";
    return;
  }
  const Status status = context_->save(path);
  if (!status.ok()) {
    CountErrors(context_->stats->err_save, 1);
    *out += "ERR " + status.message() + "\n";
    return;
  }
  context_->stats->saves.fetch_add(1, std::memory_order_relaxed);
  *out += "OK\n";
}

void Session::CountErrors(std::atomic<uint64_t>& kind, uint64_t n) const {
  kind.fetch_add(n, std::memory_order_relaxed);
  context_->stats->malformed.fetch_add(n, std::memory_order_relaxed);
}

void Session::AppendStats(std::string* out) const {
  // One coherent reference for the whole block: build stats and component
  // count come from the same (possibly just-reloaded) index.
  const std::shared_ptr<const ReachabilityIndex> index =
      context_->index->Acquire();
  const BuildStats& build = index->oracle().build_stats();
  const ServerStats& stats = *context_->stats;
  *out += "STATS\n";
  *out += "method " + context_->method + "\n";
  AppendKeyValue(out, "vertices", context_->graph_vertices);
  AppendKeyValue(out, "edges", context_->graph_edges);
  AppendKeyValue(out, "components", index->num_components());
  char build_ms[32];
  std::snprintf(build_ms, sizeof(build_ms), "%.3f", build.build_millis);
  *out += "build_ms ";
  *out += build_ms;
  *out += '\n';
  AppendKeyValue(out, "index_integers", build.index_integers);
  AppendKeyValue(out, "index_bytes", build.index_bytes);
  AppendKeyValue(out, "threads", static_cast<uint64_t>(build.threads));
  // Last index publish: wall time to ready it, peak RSS right after, and
  // whether the live index serves zero-copy from a file mapping. The
  // identity_scc flag says the load skipped SCC condensation entirely
  // (DAG-shaped snapshot; the large_smoke script pins it at startup).
  char load_ms[32];
  std::snprintf(load_ms, sizeof(load_ms), "%.3f",
                static_cast<double>(
                    stats.load_micros.load(std::memory_order_relaxed)) /
                    1000.0);
  *out += "load_ms ";
  *out += load_ms;
  *out += '\n';
  AppendKeyValue(out, "rss_kb",
                 stats.rss_peak_kb.load(std::memory_order_relaxed));
  AppendKeyValue(out, "mmap",
                 stats.load_mmap.load(std::memory_order_relaxed));
  AppendKeyValue(out, "identity_scc", index->identity_condensation() ? 1 : 0);
  // Pre-filter tier hit counters, live (not the build-time snapshot):
  // clients watching a negative-heavy workload should see the NO-stage
  // counters climb without a STATS round-trip lag.
  const auto* prefilter =
      dynamic_cast<const PrefilterOracle*>(&index->oracle());
  AppendKeyValue(out, "prefilter", prefilter != nullptr ? 1 : 0);
  if (prefilter != nullptr) {
    const PrefilterStageCounters counters = prefilter->counters();
    AppendKeyValue(out, "pf_interval_yes", counters.interval_yes);
    AppendKeyValue(out, "pf_interval_no", counters.interval_no);
    AppendKeyValue(out, "pf_support_yes", counters.support_yes);
    AppendKeyValue(out, "pf_support_no", counters.support_no);
    AppendKeyValue(out, "pf_level_no", counters.level_no);
    AppendKeyValue(out, "pf_fallback", counters.fallback);
  }
  AppendKeyValue(out, "connections",
                 stats.connections.load(std::memory_order_relaxed));
  AppendKeyValue(out, "queries",
                 stats.queries.load(std::memory_order_relaxed));
  AppendKeyValue(out, "batches",
                 stats.batches.load(std::memory_order_relaxed));
  AppendKeyValue(out, "reloads",
                 stats.reloads.load(std::memory_order_relaxed));
  AppendKeyValue(out, "saves",
                 stats.saves.load(std::memory_order_relaxed));
  AppendKeyValue(out, "malformed",
                 stats.malformed.load(std::memory_order_relaxed));
  AppendKeyValue(out, "err_parse",
                 stats.err_parse.load(std::memory_order_relaxed));
  AppendKeyValue(out, "err_range",
                 stats.err_range.load(std::memory_order_relaxed));
  AppendKeyValue(out, "err_line_overflow",
                 stats.err_line_overflow.load(std::memory_order_relaxed));
  AppendKeyValue(out, "err_reload",
                 stats.err_reload.load(std::memory_order_relaxed));
  AppendKeyValue(out, "err_save",
                 stats.err_save.load(std::memory_order_relaxed));
  *out += "END\n";
}

}  // namespace server
}  // namespace reach
