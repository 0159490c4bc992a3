#include "workloads.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "baselines/factory.h"
#include "core/reachability.h"
#include "graph/graph_io.h"
#include "probes.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"
#include "util/resource.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using reach::Digraph;
using reach::ReachabilityIndex;
using reach::Vertex;
using reach::server::Client;
using reach::server::ReachServer;
using reach::server::ServerOptions;

constexpr int kSetupRepeats = 5;
constexpr size_t kBlockCalls = 1024;     // embed-cold-dl latency unit.
constexpr size_t kFrameQueries = 1000;   // BATCH frame size.
constexpr int kServeWorkers = 2;         // Server handlers; one per client.
constexpr int64_t kReloadPeriodNs = 200'000'000;
constexpr size_t kSpanCapacity = size_t{1} << 19;  // Per thread.
constexpr const char* kLoopback = "127.0.0.1";
/// Layers whose self time the traced run reports.
constexpr const char* kLayers[] = {"graph", "core", "util", "server",
                                   "snapshot"};

/// The timed phase, cut into kSlices equal slices. End-to-end figures are
/// medians over slices, so a burst of interference from other tenants of the
/// machine that spoils one slice does not move them. A traced run traces the
/// second and fourth quarter, so the tracing overhead is measured on the same
/// connections and warm state; an untraced run is untraced throughout.
class Phase {
 public:
  static constexpr int kSlices = 8;

  Phase(double seconds, bool trace)
      : trace_(trace),
        start_ns_(NowNs()),
        end_ns_(start_ns_ + static_cast<int64_t>(seconds * 1e9)) {}

  int64_t start_ns() const { return start_ns_; }
  int64_t end_ns() const { return end_ns_; }
  double slice_seconds() const {
    return static_cast<double>(end_ns_ - start_ns_) / 1e9 / kSlices;
  }
  int Slice(int64_t t) const {
    return static_cast<int>(std::clamp<int64_t>(
        (t - start_ns_) * kSlices / (end_ns_ - start_ns_), 0, kSlices - 1));
  }
  bool SliceTraced(int slice) const { return trace_ && slice / 2 % 2 == 1; }
  bool Traced(int64_t t) const { return SliceTraced(Slice(t)); }

 private:
  bool trace_;
  int64_t start_ns_;
  int64_t end_ns_;
};

/// Latency samples of one slice: a uniform reservoir of fixed size,
/// allocated up front, so the benchmark's own memory (which peak_rss_mb
/// includes) does not grow with throughput.
class Reservoir {
 public:
  static constexpr size_t kCapacity = 4096;

  Reservoir() : samples_(kCapacity) {}

  void Add(double value, reach::Rng* rng) {
    if (seen_ < kCapacity) {
      samples_[seen_] = value;
    } else if (const uint64_t slot = rng->Uniform(seen_ + 1);
               slot < kCapacity) {
      samples_[slot] = value;
    }
    ++seen_;
  }

  uint64_t seen() const { return seen_; }
  std::span<const double> samples() const {
    return {samples_.data(), std::min<size_t>(seen_, kCapacity)};
  }

 private:
  std::vector<double> samples_;
  uint64_t seen_ = 0;
};

/// One thread's query outcomes in the timed phase.
struct Tally {
  uint64_t sent = 0;      // Queries sent (or called, when embedded).
  uint64_t answered = 0;  // Answered "1"/"0".
  uint64_t wrong = 0;     // Answered against the truth label.
  uint64_t errors = 0;    // ERR lines and client errors.
  // Per slice: queries answered by requests started in it, and those
  // requests' latencies.
  std::array<uint64_t, Phase::kSlices> slice_answered{};
  std::array<Reservoir, Phase::kSlices> slice_latency_us;
  reach::Rng rng{1};  // Reservoir replacement only.

  void Record(const Phase& phase, int64_t start_ns, int64_t end_ns,
              uint64_t queries) {
    const int slice = phase.Slice(start_ns);
    slice_answered[slice] += queries;
    slice_latency_us[slice].Add(static_cast<double>(end_ns - start_ns) / 1e3,
                                &rng);
  }
};

/// Shared state of one run.
class Run {
 public:
  explicit Run(const RunOptions& options) : options_(options) {
    if (options.trace) {
      for (uint32_t t = 0; t <= kServeWorkers; ++t) {
        logs_.push_back(std::make_unique<SpanLog>(t + 1, kSpanCapacity));
      }
    }
  }

  const RunOptions& options() const { return options_; }
  const WorkloadSpec& spec() const { return *options_.spec; }
  RunResult& result() { return result_; }
  std::vector<Pair>& pool() { return pool_; }
  /// Span log of thread `t` (0: the main thread); null when untraced.
  SpanLog* log(size_t t = 0) {
    return options_.trace ? logs_[t].get() : nullptr;
  }
  std::string path(const char* name) const {
    return options_.dir + "/" + name;
  }

  /// Reads the workload graph inside a graph.read span.
  std::unique_ptr<Digraph> ReadGraph(uint64_t parent) {
    const int64_t start = NowNs();
    ScopedSpan span(log(), "graph.read_edge_list", parent);
    reach::StatusOr<Digraph> graph =
        reach::ReadEdgeListFile(path("graph.txt"));
    result_.Check("graph.read", graph.ok(),
                  graph.ok() ? "" : graph.status().ToString());
    if (!graph.ok()) return nullptr;
    read_ms_.push_back(static_cast<double>(NowNs() - start) / 1e6);
    return std::make_unique<Digraph>(std::move(*graph));
  }

  /// Runs `setup` (graph file to ready index) kSetupRepeats times and
  /// records the median as setup_s. Each call replaces the state of the
  /// previous one. False when a set-up failed.
  template <typename Setup>
  bool RepeatSetup(const Setup& setup) {
    ScopedSpan root(log(), "bench.setup");
    std::vector<double> seconds;
    for (int r = 0; r < kSetupRepeats; ++r) {
      const int64_t start = NowNs();
      if (!setup(root.id())) return false;
      seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
    result_.Set("setup_s", Median(seconds), "s", kSetupRepeats);
    result_.Set("graph.read_ms", Median(read_ms_), "ms", read_ms_.size());
    return true;
  }

  /// Folds the per-thread tallies into the end-to-end metrics: medians
  /// over the untraced slices of each slice's throughput and latency
  /// quantiles.
  void ReportTimed(const Phase& phase, const std::vector<Tally>& tallies) {
    uint64_t wrong = 0;
    uint64_t errors = 0;
    for (const Tally& t : tallies) {
      result_.attempted += t.sent;
      wrong += t.wrong;
      errors += t.errors;
    }
    result_.failed += wrong + errors;
    result_.Check("answers", wrong == 0,
                  std::to_string(wrong) + " answers differ from the truth");
    result_.Check("errors", errors == 0,
                  std::to_string(errors) + " ERR lines or client errors");
    std::vector<double> qps;
    std::vector<double> p10;
    std::vector<double> p50;
    std::vector<double> p99;
    uint64_t samples = 0;
    uint64_t answered[2] = {0, 0};  // Untraced, traced slices.
    for (int slice = 0; slice < Phase::kSlices; ++slice) {
      uint64_t slice_answered = 0;
      std::vector<double> latency_us;
      uint64_t slice_samples = 0;
      for (const Tally& t : tallies) {
        const Reservoir& reservoir = t.slice_latency_us[slice];
        slice_answered += t.slice_answered[slice];
        slice_samples += reservoir.seen();
        latency_us.insert(latency_us.end(), reservoir.samples().begin(),
                          reservoir.samples().end());
      }
      const bool traced = phase.SliceTraced(slice);
      answered[traced] += slice_answered;
      if (traced || latency_us.empty()) continue;
      samples += slice_samples;
      qps.push_back(static_cast<double>(slice_answered) /
                    phase.slice_seconds());
      p10.push_back(Quantile(latency_us, 0.10));
      p50.push_back(Quantile(latency_us, 0.50));
      p99.push_back(Quantile(latency_us, 0.99));
    }
    result_.Set("qps", Median(qps), "queries/s", answered[0]);
    result_.Set("p10_us", Median(p10), "us", samples);
    result_.Set("p50_us", Median(p50), "us", samples);
    result_.Set("p99_us", Median(p99), "us", samples);
    result_.Set("peak_rss_mb",
                static_cast<double>(reach::PeakRssKb()) / 1024.0, "MB");
    p50_us_ = Median(p50);
    if (options_.trace) {
      // Each kind of quarter covers half the phase.
      const double half = phase.slice_seconds() * Phase::kSlices / 2;
      const double untraced_qps = static_cast<double>(answered[0]) / half;
      const double traced_qps = static_cast<double>(answered[1]) / half;
      result_.Set("trace.qps_untraced", untraced_qps, "queries/s");
      result_.Set("trace.qps_traced", traced_qps, "queries/s");
      result_.Set("trace.overhead_pct",
                  100.0 * (untraced_qps - traced_qps) / untraced_qps, "%");
    }
  }

  /// Socket and scheduling share of one request: the p50 round trip minus
  /// the Session::Feed time of its `queries` queries. Traced runs only.
  void ReportWireMinusFeed(size_t queries) {
    const auto feed = result_.metrics.find("server.feed_ns_per_query");
    if (feed == result_.metrics.end()) return;
    result_.Set("server.wire_minus_feed_us",
                p50_us_ - feed->second.value * static_cast<double>(queries) /
                              1e3,
                "us");
  }

  /// Traced run: per-layer probes, then the span summary and file.
  void FinishTrace(const Digraph& graph,
                   std::shared_ptr<const ReachabilityIndex> index) {
    if (!options_.trace) return;
    {
      ScopedSpan root(log(), "bench.probes");
      ProbeInputs in;
      in.spec = options_.spec;
      in.graph = &graph;
      in.index = std::move(index);
      in.pool = &pool_;
      in.dir = options_.dir;
      in.log = log();
      in.parent = root.id();
      RunProbes(in, &result_);
    }
    std::vector<const SpanLog*> logs;
    uint64_t dropped = 0;
    for (const auto& log : logs_) {
      logs.push_back(log.get());
      dropped += log->dropped();
    }
    const std::vector<Span> spans = MergeLogs(logs);
    std::map<std::string, double> self_ms = SelfMillisByLayer(spans);
    for (const char* layer : kLayers) self_ms.try_emplace(layer, 0.0);
    for (const auto& [layer, ms] : self_ms) {
      result_.Set("trace.self_ms." + layer, ms, "ms", spans.size());
    }
    result_.Set("trace.spans", static_cast<double>(spans.size()), "count");
    result_.Set("trace.spans_dropped", static_cast<double>(dropped), "count");
    result_.Check("trace.write", WriteSpansCsv(spans, options_.spans_path),
                  "cannot write " + options_.spans_path);
  }

 private:
  const RunOptions& options_;
  RunResult result_;
  std::vector<Pair> pool_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  std::vector<double> read_ms_;
  double p50_us_ = 0;
};

/// STATS as a key -> value map; empty on a client error.
std::map<std::string, std::string> ReadStats(Client* client) {
  std::map<std::string, std::string> stats;
  const reach::StatusOr<std::vector<std::string>> lines = client->Stats();
  if (!lines.ok()) return stats;
  for (const std::string& line : *lines) {
    const size_t space = line.find(' ');
    if (space != std::string::npos) {
      stats[line.substr(0, space)] = line.substr(space + 1);
    }
  }
  return stats;
}

/// Gates the server's STATS counters against the client's own tallies and
/// reports them.
void CheckServerCounters(Run* run, uint16_t port,
                         const std::map<std::string, uint64_t>& expected) {
  Client client;
  std::map<std::string, std::string> stats;
  if (client.Connect(kLoopback, port).ok()) stats = ReadStats(&client);
  for (const auto& [key, want] : expected) {
    const auto it = stats.find(key);
    const std::string got = it == stats.end() ? "missing" : it->second;
    run->result().Check("server.stats_" + key, got == std::to_string(want),
                        "STATS " + key + " " + got + ", client counted " +
                            std::to_string(want));
    if (it != stats.end()) {
      run->result().Set("server.stats_" + key, std::stod(got), "count");
    }
  }
}

void RunEmbed(Run* run) {
  std::unique_ptr<Digraph> graph;
  std::shared_ptr<const ReachabilityIndex> index;
  const bool ready = run->RepeatSetup([&](uint64_t parent) {
    index.reset();
    graph = run->ReadGraph(parent);
    if (graph == nullptr) return false;
    ScopedSpan span(run->log(), "core.build", parent);
    reach::StatusOr<ReachabilityIndex> built = ReachabilityIndex::Build(
        *graph, reach::MakeOracle(run->spec().method));
    run->result().Check("core.build", built.ok(),
                        built.ok() ? "" : built.status().ToString());
    if (!built.ok()) return false;
    index = std::make_shared<const ReachabilityIndex>(std::move(*built));
    return true;
  });
  if (!ready) return;
  run->result().Set("index_bytes",
                    static_cast<double>(index->oracle().IndexSizeBytes()), "B");

  const std::vector<Pair>& pool = run->pool();
  std::vector<Tally> tallies(1);
  Tally& tally = tallies[0];
  Phase phase(run->options().seconds, run->options().trace);
  {
    ScopedSpan timed(run->log(), "bench.timed");
    size_t cursor = 0;
    uint64_t request = 0;
    for (;;) {
      const int64_t start = NowNs();
      if (start >= phase.end_ns()) break;
      const bool traced = phase.Traced(start);
      uint64_t wrong = 0;
      {
        ScopedSpan span(traced ? run->log() : nullptr, "core.reachable_block",
                        timed.id(), ++request);
        for (size_t k = 0; k < kBlockCalls; ++k) {
          const Pair& pair = pool[cursor];
          wrong += index->Reachable(pair.u, pair.v) != pair.reachable;
          if (++cursor == pool.size()) cursor = 0;
        }
      }
      tally.sent += kBlockCalls;
      tally.answered += kBlockCalls;
      tally.wrong += wrong;
      tally.Record(phase, start, NowNs(), kBlockCalls);
    }
  }
  run->ReportTimed(phase, tallies);
  run->FinishTrace(*graph, index);
}

/// Starts a server for the workload: built from the graph, or loaded from
/// `snapshot` when non-empty.
std::unique_ptr<ReachServer> StartServer(Run* run, const Digraph& graph,
                                         const std::string& snapshot,
                                         uint64_t parent) {
  ServerOptions options;
  options.method = run->spec().method;
  options.workers = kServeWorkers;
  options.load_index_path = snapshot;
  auto server = std::make_unique<ReachServer>();
  ScopedSpan span(run->log(),
                  snapshot.empty() ? "server.start" : "snapshot.server_start",
                  parent);
  const reach::Status started = server->Start(graph, options);
  run->result().Check("server.start", started.ok(), started.ToString());
  return started.ok() ? std::move(server) : nullptr;
}

void RunServeQ(Run* run) {
  std::unique_ptr<Digraph> graph;
  std::unique_ptr<ReachServer> server;
  const bool ready = run->RepeatSetup([&](uint64_t parent) {
    server.reset();
    graph = run->ReadGraph(parent);
    if (graph == nullptr) return false;
    server = StartServer(run, *graph, "", parent);
    return server != nullptr;
  });
  if (!ready) return;
  run->result().Set(
      "index_bytes",
      static_cast<double>(server->index()->oracle().IndexSizeBytes()), "B");

  const std::vector<Pair>& pool = run->pool();
  std::vector<Tally> tallies(kServeWorkers);
  Phase phase(run->options().seconds, run->options().trace);
  {
    ScopedSpan timed(run->log(), "bench.timed");
    std::vector<std::thread> clients;
    for (int t = 0; t < kServeWorkers; ++t) {
      clients.emplace_back([&, t] {
        Tally& tally = tallies[t];
        SpanLog* log = run->log(t + 1);
        Client client;
        if (!client.Connect(kLoopback, server->port()).ok()) {
          ++tally.errors;
          return;
        }
        uint64_t request = 0;
        // Each client walks its own stripe of the pool.
        for (size_t i = t;; i = (i + kServeWorkers) % pool.size()) {
          const int64_t start = NowNs();
          if (start >= phase.end_ns()) break;
          const bool traced = phase.Traced(start);
          const Pair& pair = pool[i];
          reach::StatusOr<std::string> answer = [&] {
            ScopedSpan span(traced ? log : nullptr, "server.q_roundtrip",
                            timed.id(),
                            (static_cast<uint64_t>(t + 1) << 40) | ++request);
            return client.Query(pair.u, pair.v);
          }();
          ++tally.sent;
          if (!answer.ok()) {
            ++tally.errors;
            break;
          }
          if (*answer != "1" && *answer != "0") {
            ++tally.errors;
            continue;
          }
          ++tally.answered;
          tally.wrong += (*answer == "1") != pair.reachable;
          tally.Record(phase, start, NowNs(), 1);
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  run->ReportTimed(phase, tallies);
  uint64_t answered = 0;
  for (const Tally& tally : tallies) answered += tally.answered;
  CheckServerCounters(run, server->port(),
                      {{"queries", answered}, {"batches", 0}, {"malformed", 0}});
  if (run->options().trace) {
    run->FinishTrace(*graph, server->index());
    run->ReportWireMinusFeed(1);
  }
}

/// One RELOAD or SAVE of the open-loop connection.
struct SwapEvent {
  int64_t due_ns = 0;
  bool save = false;
  std::string path;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
  double server_ms = 0;  // STATS load_ms after a RELOAD.
};

void RunServeBatchReload(Run* run) {
  std::unique_ptr<Digraph> graph;
  std::unique_ptr<ReachServer> server;
  const bool ready = run->RepeatSetup([&](uint64_t parent) {
    server.reset();
    graph = run->ReadGraph(parent);
    if (graph == nullptr) return false;
    server = StartServer(run, *graph, run->path("a.snap"), parent);
    return server != nullptr;
  });
  if (!ready) return;
  run->result().Set(
      "index_bytes",
      static_cast<double>(server->index()->oracle().IndexSizeBytes()), "B");

  const std::vector<Pair>& pool = run->pool();
  Phase phase(run->options().seconds, run->options().trace);
  // Open-loop schedule: RELOAD every period alternating B/A, and one SAVE
  // half a period off the grid in the middle of the run.
  std::vector<SwapEvent> events;
  for (int64_t k = 1; phase.start_ns() + k * kReloadPeriodNs < phase.end_ns();
       ++k) {
    SwapEvent event;
    event.due_ns = phase.start_ns() + k * kReloadPeriodNs;
    event.path = run->path(k % 2 == 1 ? "b.snap" : "a.snap");
    events.push_back(event);
  }
  SwapEvent save;
  save.due_ns = phase.start_ns() +
                static_cast<int64_t>(events.size() / 2) * kReloadPeriodNs +
                kReloadPeriodNs / 2;
  save.save = true;
  save.path = run->path("saved.snap");
  events.push_back(save);
  std::sort(events.begin(), events.end(),
            [](const SwapEvent& a, const SwapEvent& b) {
              return a.due_ns < b.due_ns;
            });

  std::vector<Tally> tallies(1);
  std::vector<std::pair<int64_t, int64_t>> frames;  // (start, end) each.
  uint64_t swap_connect_errors = 0;
  {
    ScopedSpan timed(run->log(), "bench.timed");
    std::thread batcher([&] {
      Tally& tally = tallies[0];
      SpanLog* log = run->log(1);
      Client client;
      if (!client.Connect(kLoopback, server->port()).ok()) {
        ++tally.errors;
        return;
      }
      std::vector<std::pair<Vertex, Vertex>> frame(kFrameQueries);
      std::vector<bool> truth(kFrameQueries);
      size_t cursor = 0;
      uint64_t request = 0;
      for (;;) {
        for (size_t k = 0; k < kFrameQueries; ++k) {
          frame[k] = {pool[cursor].u, pool[cursor].v};
          truth[k] = pool[cursor].reachable;
          if (++cursor == pool.size()) cursor = 0;
        }
        const int64_t start = NowNs();
        if (start >= phase.end_ns()) break;
        const bool traced = phase.Traced(start);
        reach::StatusOr<std::vector<std::string>> answers = [&] {
          ScopedSpan span(traced ? log : nullptr, "server.batch_frame",
                          timed.id(), (uint64_t{1} << 40) | ++request);
          return client.Batch(frame);
        }();
        const int64_t end = NowNs();
        tally.sent += kFrameQueries;
        if (!answers.ok()) {
          tally.errors += kFrameQueries;
          break;
        }
        for (size_t k = 0; k < kFrameQueries; ++k) {
          const std::string& answer = (*answers)[k];
          if (answer != "1" && answer != "0") {
            ++tally.errors;
            continue;
          }
          ++tally.answered;
          tally.wrong += (answer == "1") != truth[k];
        }
        frames.emplace_back(start, end);
        tally.Record(phase, start, end, kFrameQueries);
      }
    });
    std::thread swapper([&] {
      SpanLog* log = run->log(2);
      Client client;
      if (!client.Connect(kLoopback, server->port()).ok()) {
        ++swap_connect_errors;
        return;
      }
      uint64_t request = 0;
      for (SwapEvent& event : events) {
        const int64_t now = NowNs();
        if (now < event.due_ns) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(event.due_ns - now));
        }
        event.sent_ns = NowNs();
        const bool traced = phase.Traced(event.sent_ns);
        const uint64_t id = (uint64_t{2} << 40) | ++request;
        reach::StatusOr<std::string> reply = [&] {
          ScopedSpan span(traced ? log : nullptr,
                          event.save ? "server.save" : "server.reload",
                          timed.id(), id);
          return event.save ? client.Save(event.path)
                            : client.Reload(event.path);
        }();
        event.done_ns = NowNs();
        if (!reply.ok()) return;  // Counted failed: sent, not OK.
        event.ok = *reply == "OK";
        if (event.ok && !event.save) {
          ScopedSpan span(traced ? log : nullptr, "server.stats", timed.id(),
                          id);
          const auto stats = ReadStats(&client);
          const auto it = stats.find("load_ms");
          if (it != stats.end()) event.server_ms = std::stod(it->second);
        }
      }
    });
    batcher.join();
    swapper.join();
  }
  run->ReportTimed(phase, tallies);

  // RELOAD/SAVE outcomes: each is one attempted operation.
  uint64_t reloads_ok = 0;
  uint64_t saves_ok = 0;
  std::vector<double> reload_ms;
  std::vector<double> rtt_ms;
  std::vector<double> server_ms;
  std::vector<double> lateness_ms;
  std::vector<double> first_frame_us;
  for (const SwapEvent& event : events) {
    if (event.done_ns == 0) continue;  // Never sent: the client failed.
    run->result().attempted += 1;
    lateness_ms.push_back(static_cast<double>(event.sent_ns - event.due_ns) /
                          1e6);
    if (!event.ok) continue;
    (event.save ? saves_ok : reloads_ok) += 1;
    if (event.save) continue;
    reload_ms.push_back(static_cast<double>(event.done_ns - event.due_ns) /
                        1e6);
    rtt_ms.push_back(static_cast<double>(event.done_ns - event.sent_ns) /
                     1e6);
    server_ms.push_back(event.server_ms);
    // The first frame sent after the swap is the first on the new mapping.
    const auto frame = std::lower_bound(
        frames.begin(), frames.end(), std::make_pair(event.done_ns, int64_t{0}));
    if (frame != frames.end()) {
      first_frame_us.push_back(
          static_cast<double>(frame->second - frame->first) / 1e3);
    }
  }
  const uint64_t swaps_attempted = lateness_ms.size();
  const uint64_t swaps_failed =
      swaps_attempted - reloads_ok - saves_ok + swap_connect_errors;
  run->result().failed += swaps_failed;
  run->result().Check("server.reload_save", swaps_failed == 0,
                      std::to_string(swaps_failed) +
                          " RELOAD/SAVE requests failed");
  run->result().Check("server.save_once", saves_ok == 1,
                      std::to_string(saves_ok) + " successful SAVEs");
  run->result().Set("reload_p50_ms", Quantile(reload_ms, 0.50), "ms",
                    reload_ms.size());
  run->result().Set("reload_p90_ms", Quantile(reload_ms, 0.90), "ms",
                    reload_ms.size());
  run->result().Set("snapshot.reload_rtt_ms", Median(rtt_ms), "ms",
                    rtt_ms.size());
  run->result().Set("snapshot.reload_server_ms", Median(server_ms), "ms",
                    server_ms.size());
  run->result().Set("snapshot.first_batch_after_reload_us",
                    Median(first_frame_us), "us", first_frame_us.size());
  run->result().Set("client.lateness_ms_p50", Median(lateness_ms), "ms",
                    lateness_ms.size());
  run->result().Set("client.lateness_ms_max",
                    lateness_ms.empty()
                        ? 0.0
                        : *std::max_element(lateness_ms.begin(),
                                            lateness_ms.end()),
                    "ms", lateness_ms.size());

  // The saved live index must be byte-identical to the snapshots it came
  // from (A and B hold the same deterministic index).
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  if (saves_ok == 1) {
    const bool same = slurp(run->path("saved.snap")) == slurp(run->path("a.snap"));
    run->result().Check("server.save_bytes", same,
                        "SAVE wrote a snapshot that differs from the loaded one");
    run->result().failed += same ? 0 : 1;
  }
  CheckServerCounters(run, server->port(),
                      {{"queries", tallies[0].answered},
                       {"batches", frames.size()},
                       {"malformed", 0},
                       {"reloads", reloads_ok},
                       {"saves", saves_ok}});
  if (run->options().trace) {
    run->FinishTrace(*graph, server->index());
    run->ReportWireMinusFeed(kFrameQueries);
  }
}

}  // namespace

RunResult RunWorkload(const RunOptions& options) {
  Run run(options);
  if (!ReadPairs(run.path("pairs.bin"), &run.pool()) || run.pool().empty()) {
    run.result().Check("inputs", false, "cannot read " + run.path("pairs.bin"));
    return run.result();
  }
  if (options.spec->name == "embed-cold-dl") {
    RunEmbed(&run);
  } else if (options.spec->name == "serve-q-dl") {
    RunServeQ(&run);
  } else {
    RunServeBatchReload(&run);
  }
  return run.result();
}

}  // namespace perfbench
