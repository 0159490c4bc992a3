// Long-lived reachability oracle server over a line protocol (see
// src/server/protocol.h): load a graph once, build any registry oracle
// once, then answer batched queries from concurrent TCP clients until a
// client sends SHUTDOWN (or SIGINT/SIGTERM).
//
//   reach_serve GRAPH [--method=DL] [--threads=N] [--port=0]
//               [--workers=4] [--max-batch=N] [--prefilter]
//               [--save-index=PATH] [--load-index=PATH]
//
// On success the tool prints "LISTENING <port>" on stdout (scripts parse
// this to learn the ephemeral port) and serves until drained; exit code 0
// means a clean drain.
//
// --save-index writes the built index as a sealed snapshot after
// construction (published atomically: tmp + rename, so a failed write
// never leaves a partial file); --load-index restores it on a restart,
// skipping the build entirely (the startup log says so). The two flags are
// mutually exclusive. Snapshot-capable methods: DL, HL, TF, 2HOP.
//
// A running server can also be hot-swapped onto a fresh snapshot without a
// restart: the RELOAD <path> protocol verb validates the snapshot (same
// method + graph shape) and atomically publishes it while in-flight
// queries finish on the old index, and SAVE <path> writes the live index
// snapshot on demand (same atomic publish).

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>

#include "baselines/factory.h"
#include "graph/graph_io.h"
#include "server/server.h"
#include "util/strict_parse.h"
#include "util/timer.h"

namespace {

reach::server::ReachServer* g_server = nullptr;

void HandleSignal(int /*signum*/) {
  // Async-signal-safe drain trigger; the server's handler threads wake and
  // finish the shutdown on the normal drain path.
  if (g_server != nullptr) g_server->RequestStopFromSignal();
}

void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: reach_serve GRAPH [--method=NAME] [--threads=N] "
               "[--port=P] [--workers=N] [--max-batch=N]\n"
               "  GRAPH          edge list (.txt), .gra adjacency, or .bin\n"
               "  --method=NAME  oracle to build (default DL); one of:\n"
               "                 ");
  for (const std::string& name : reach::AllOracleNames()) {
    std::fprintf(out, "%s ", name.c_str());
  }
  std::fprintf(
      out,
      "\n  --threads=N    construction worker threads (default: "
      "REACH_THREADS env,\n"
      "                 else hardware concurrency; never changes answers)\n"
      "  --port=P       TCP port on 127.0.0.1 (default 0 = ephemeral; the\n"
      "                 bound port is printed as 'LISTENING <port>')\n"
      "  --workers=N    concurrent client connections served (default 4)\n"
      "  --max-batch=N  largest accepted BATCH count (default %llu)\n"
      "  --prefilter    wrap the oracle in the O(1) pre-filter tier\n"
      "                 (answers unchanged; STATS gains pf_* hit counters;\n"
      "                 snapshots carry the screening arrays)\n"
      "  --save-index=PATH  write the built index snapshot to PATH\n"
      "                 (atomic publish: tmp + rename)\n"
      "  --load-index=PATH  restore the index from PATH instead of\n"
      "                 building (must match GRAPH and --method; DL, HL,\n"
      "                 TF, 2HOP only; exclusive with --save-index)\n"
      "protocol: 'Q u v' | 'BATCH n' + n 'u v' lines | STATS | PING |\n"
      "          'RELOAD <path>' (hot index swap) | 'SAVE <path>' | "
      "SHUTDOWN\n",
      static_cast<unsigned long long>(
          reach::server::ProtocolLimits().max_batch));
}

bool ParseFlagUint(const std::string& arg, const char* flag_name,
                   size_t prefix_len, uint64_t min, uint64_t max,
                   uint64_t* out) {
  const std::string text = arg.substr(prefix_len);
  if (!reach::ParseDecimalUint64(text, out) || *out < min || *out > max) {
    std::fprintf(stderr,
                 "error: %s expects an integer in [%llu, %llu], got '%s'\n",
                 flag_name, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), text.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace reach;
  // Help preempts validation (same contract as reach_cli and the bench
  // binaries): usage is always reachable with exit code 0.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return 0;
    }
  }
  std::string graph_path;
  server::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    uint64_t value = 0;
    if (arg.rfind("--method=", 0) == 0) {
      options.method = arg.substr(9);
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!ParseFlagUint(arg, "--threads", 10, 1, 1024, &value)) {
        Usage(stderr);
        return 2;
      }
      options.build_threads = static_cast<int>(value);
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!ParseFlagUint(arg, "--port", 7, 0, 65535, &value)) {
        Usage(stderr);
        return 2;
      }
      options.port = static_cast<uint16_t>(value);
    } else if (arg.rfind("--workers=", 0) == 0) {
      if (!ParseFlagUint(arg, "--workers", 10, 1, 256, &value)) {
        Usage(stderr);
        return 2;
      }
      options.workers = static_cast<int>(value);
    } else if (arg.rfind("--max-batch=", 0) == 0) {
      if (!ParseFlagUint(arg, "--max-batch", 12, 1, uint64_t{1} << 30,
                         &value)) {
        Usage(stderr);
        return 2;
      }
      options.limits.max_batch = value;
    } else if (arg == "--prefilter") {
      options.prefilter = true;
    } else if (arg.rfind("--save-index=", 0) == 0) {
      options.save_index_path = arg.substr(13);
      if (options.save_index_path.empty()) {
        std::fprintf(stderr, "error: --save-index requires a path\n");
        return 2;
      }
    } else if (arg.rfind("--load-index=", 0) == 0) {
      options.load_index_path = arg.substr(13);
      if (options.load_index_path.empty()) {
        std::fprintf(stderr, "error: --load-index requires a path\n");
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      Usage(stderr);
      return 2;
    } else if (graph_path.empty()) {
      graph_path = arg;
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
      Usage(stderr);
      return 2;
    }
  }
  if (graph_path.empty()) {
    Usage(stderr);
    return 2;
  }

  const Timer read_timer;
  GraphReadStats read_stats;
  auto graph = ReadGraphFile(graph_path, &read_stats);
  if (!graph.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", graph_path.c_str(),
                 graph.status().ToString().c_str());
    return 1;
  }
  // One key=value line per load phase, ahead of the readiness line.
  std::fprintf(stderr,
               "event=graph_read path=%s vertices=%zu edges=%zu "
               "read_ms=%.1f passes=%d ranges=%d canonical=%d parse_ms=%.1f "
               "canonicalize_ms=%.1f reverse_csr_ms=%.1f\n",
               graph_path.c_str(), graph->num_vertices(), graph->num_edges(),
               read_timer.ElapsedMillis(), read_stats.passes, read_stats.ranges,
               read_stats.canonical_input ? 1 : 0,
               read_stats.parse_ms, read_stats.canonicalize_ms,
               read_stats.reverse_csr_ms);

  server::ReachServer reach_server;
  // One line per index publish (startup and every RELOAD): load wall time,
  // peak RSS, and whether the index serves zero-copy from a mapping.
  options.info_log = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };
  const Status status = reach_server.Start(*graph, options);
  if (!status.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  const BuildStats& build = reach_server.build_stats();
  if (reach_server.loaded_from_snapshot()) {
    std::fprintf(stderr,
                 "serving %s (%zu vertices, %zu edges) with %s: loaded "
                 "index from %s in %.1f ms (%llu index integers, %s%s); "
                 "skipped construction\n",
                 graph_path.c_str(), graph->num_vertices(),
                 graph->num_edges(), options.method.c_str(),
                 options.load_index_path.c_str(), build.build_millis,
                 static_cast<unsigned long long>(build.index_integers),
                 reach_server.loaded_mmap() ? "mmap zero-copy"
                                            : "owned read",
                 reach_server.index()->identity_condensation()
                     ? ", SCC condensation skipped"
                     : "");
  } else {
    std::fprintf(stderr,
                 "serving %s (%zu vertices, %zu edges) with %s: %llu index "
                 "integers, built in %.1f ms with %d thread%s\n",
                 graph_path.c_str(), graph->num_vertices(),
                 graph->num_edges(), options.method.c_str(),
                 static_cast<unsigned long long>(build.index_integers),
                 build.build_millis, build.threads,
                 build.threads == 1 ? "" : "s");
    std::fprintf(stderr,
                 "event=index_built threads=%d order=%s order_ms=%.1f "
                 "label_ms=%.1f search_ms=%.1f cleanup_ms=%.1f "
                 "append_ms=%.1f batches=%llu probes=%llu pruned=%llu "
                 "row_keys_read=%llu seal_ms=%.1f build_ms=%.1f\n",
                 build.threads,
                 build.order.empty() ? "none" : build.order.c_str(),
                 build.order_millis, build.label_millis, build.search_millis,
                 build.cleanup_millis, build.append_millis,
                 static_cast<unsigned long long>(build.batches),
                 static_cast<unsigned long long>(build.probes),
                 static_cast<unsigned long long>(build.pruned),
                 static_cast<unsigned long long>(build.row_keys_read),
                 build.seal_millis, build.build_millis);
    if (!options.save_index_path.empty()) {
      std::fprintf(stderr, "index snapshot saved to %s\n",
                   options.save_index_path.c_str());
    }
  }
  if (options.prefilter) {
    std::fprintf(stderr, "prefilter tier enabled (%s)\n",
                 reach_server.index()->oracle().name().c_str());
  }
  // Handlers must be live before the readiness line: a supervisor that
  // signals the moment it sees LISTENING would otherwise race the default
  // disposition and kill the process instead of draining it.
  g_server = &reach_server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // The readiness line scripts wait for; flushed so a pipe reader sees it
  // before the first connection.
  std::printf("LISTENING %u\n", reach_server.port());
  std::fflush(stdout);

  reach_server.Wait();
  g_server = nullptr;
  std::fprintf(stderr, "drained after %llu queries; bye\n",
               static_cast<unsigned long long>(
                   reach_server.stats().queries.load()));
  return 0;
}
