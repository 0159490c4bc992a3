// Command-line reachability tool: load a graph file (edge list, .gra, or
// binary snapshot), build any oracle from the registry, and answer queries
// from the command line or stdin.
//
//   reach_cli GRAPH [--oracle=DL] [--threads=N] [--stats] [u v]...
//   echo "0 5\n3 7" | reach_cli graph.txt --oracle=HL
//
// Cyclic graphs are fine: the tool condenses SCCs before indexing (a DAG
// is indexed as it is).

#include <cstdio>
#include <cerrno>
#include <cstring>
#include <limits>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "core/reachability.h"
#include "graph/graph_io.h"
#include "util/resource.h"
#include "util/strict_parse.h"
#include "util/timer.h"

namespace {

void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: reach_cli GRAPH [--oracle=NAME] [--threads=N] "
               "[--stats] [u v]...\n"
               "  GRAPH          edge list (.txt), .gra adjacency, or .bin\n"
               "  --oracle=NAME  index to build (default DL); one of:\n"
               "                 ");
  for (const std::string& name : reach::AllOracleNames()) {
    std::fprintf(out, "%s ", name.c_str());
  }
  std::fprintf(out,
               "\n  --threads=N    construction worker threads (default: "
               "REACH_THREADS env,\n"
               "                 else hardware concurrency; never changes "
               "the index)\n"
               "  --stats        print graph read time and index statistics\n"
               "  u v            query pairs; if none given, pairs are read "
               "from stdin\n");
}

bool ParseVertex(const std::string& token, reach::Vertex* out) {
  uint64_t value = 0;
  if (!reach::ParseDecimalUint64(token, &value) ||
      value > std::numeric_limits<reach::Vertex>::max()) {
    return false;
  }
  *out = static_cast<reach::Vertex>(value);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace reach;
  // Help is a first-class path: it preempts every validation error, so a
  // user can always reach the usage text with exit code 0.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return 0;
    }
  }
  if (argc < 2) {
    Usage(stderr);
    return 2;
  }
  std::string graph_path;
  std::string oracle_name = "DL";
  BuildOptions build_options;
  bool stats = false;
  std::vector<VertexPair> pairs;
  std::vector<Vertex> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--oracle=", 0) == 0) {
      oracle_name = arg.substr(9);
    } else if (arg.rfind("--threads=", 0) == 0) {
      uint64_t value = 0;
      if (!ParseDecimalUint64(arg.substr(10), &value) || value < 1 ||
          value > 1024) {
        std::fprintf(stderr,
                     "error: --threads expects an integer in [1, 1024], "
                     "got '%s'\n",
                     arg.substr(10).c_str());
        Usage(stderr);
        return 2;
      }
      build_options.threads = static_cast<int>(value);
    } else if (arg == "--stats") {
      stats = true;
    } else if (graph_path.empty()) {
      graph_path = arg;
    } else {
      Vertex value = 0;
      if (!ParseVertex(arg, &value)) {
        std::fprintf(stderr, "error: '%s' is not a vertex id\n", arg.c_str());
        Usage(stderr);
        return 2;
      }
      positional.push_back(value);
    }
  }
  if (graph_path.empty()) {
    Usage(stderr);
    return 2;
  }
  if (positional.size() % 2 != 0) {
    std::fprintf(stderr, "error: query vertices must come in pairs (got %zu)\n",
                 positional.size());
    Usage(stderr);
    return 2;
  }
  for (size_t i = 0; i + 1 < positional.size(); i += 2) {
    pairs.push_back({positional[i], positional[i + 1]});
  }

  const Timer read_timer;
  GraphReadStats read_stats;
  auto graph = ReadGraphFile(graph_path, &read_stats);
  const double read_ms = read_timer.ElapsedMillis();
  if (!graph.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", graph_path.c_str(),
                 graph.status().ToString().c_str());
    return 1;
  }
  auto oracle = MakeOracle(oracle_name);
  if (oracle == nullptr) {
    std::fprintf(stderr, "unknown oracle '%s'\n", oracle_name.c_str());
    Usage(stderr);
    return 2;
  }

  Timer build_timer;
  auto index = ReachabilityIndex::Build(*graph, std::move(oracle),
                                        build_options);
  if (!index.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  if (stats) {
    // Index numbers come from the oracle's own BuildStats; the local timer
    // only adds the DAG check and any SCC condensation on top of the
    // oracle build. peak_rss_kb is the process's peak so far, set by the
    // read and the build: no query has run yet.
    const BuildStats& build_stats = index->oracle().build_stats();
    std::fprintf(stderr,
                 "graph: %zu vertices, %zu edges, %zu SCCs, read_ms=%.1f "
                 "passes=%d ranges=%d canonical=%d parse_ms=%.1f "
                 "canonicalize_ms=%.1f reverse_csr_ms=%.1f\n"
                 "index: %s, %llu integers, %llu bytes, built in %.1f ms "
                 "(%.1f ms %s) with %d thread%s, peak_rss_kb=%llu\n",
                 graph->num_vertices(), graph->num_edges(),
                 index->num_components(), read_ms, read_stats.passes,
                 read_stats.ranges, read_stats.canonical_input ? 1 : 0,
                 read_stats.parse_ms, read_stats.canonicalize_ms,
                 read_stats.reverse_csr_ms,
                 index->oracle().name().c_str(),
                 static_cast<unsigned long long>(build_stats.index_integers),
                 static_cast<unsigned long long>(build_stats.index_bytes),
                 build_stats.build_millis, build_timer.ElapsedMillis(),
                 index->identity_condensation() ? "with the DAG check, "
                                                  "condensation skipped"
                                                : "incl. condensation",
                 build_stats.threads, build_stats.threads == 1 ? "" : "s",
                 static_cast<unsigned long long>(PeakRssKb()));
    std::fprintf(stderr,
                 "phases: order=%s, order %.1f ms, label %.1f ms (search "
                 "%.1f ms, cleanup %.1f ms, append %.1f ms, %llu batches, "
                 "%llu probes, %llu pruned, %llu row keys read), seal %.1f "
                 "ms, label storage %llu bytes\n",
                 build_stats.order.empty() ? "none"
                                           : build_stats.order.c_str(),
                 build_stats.order_millis, build_stats.label_millis,
                 build_stats.search_millis, build_stats.cleanup_millis,
                 build_stats.append_millis,
                 static_cast<unsigned long long>(build_stats.batches),
                 static_cast<unsigned long long>(build_stats.probes),
                 static_cast<unsigned long long>(build_stats.pruned),
                 static_cast<unsigned long long>(build_stats.row_keys_read),
                 build_stats.seal_millis,
                 static_cast<unsigned long long>(
                     build_stats.label_storage_bytes));
  }

  // Answers `list` with one ReachableMany call and prints one line per
  // pair, in order; an out-of-range pair prints its own line in place.
  std::vector<VertexPair> asked;
  std::vector<uint8_t> answers;
  std::vector<VertexPair> components;
  const auto answer = [&](std::span<const VertexPair> list) {
    const size_t n = graph->num_vertices();
    const auto in_range = [n](const VertexPair& p) {
      return p.u < n && p.v < n;
    };
    asked.clear();
    for (const VertexPair& p : list) {
      if (in_range(p)) asked.push_back(p);
    }
    answers.resize(asked.size());
    index->ReachableMany(asked, answers, &components);
    size_t next = 0;
    for (const VertexPair& p : list) {
      if (in_range(p)) {
        std::printf("%u %u %d\n", p.u, p.v, answers[next++]);
      } else {
        std::printf("%u %u out-of-range\n", p.u, p.v);
      }
    }
  };

  if (!pairs.empty()) {
    answer(pairs);
    return 0;
  }
  std::string u_token;
  std::string v_token;
  while (std::cin >> u_token) {
    if (!(std::cin >> v_token)) {
      std::fprintf(stderr, "error: trailing vertex '%s' without a pair\n",
                   u_token.c_str());
      return 2;
    }
    Vertex u = 0;
    Vertex v = 0;
    if (!ParseVertex(u_token, &u) || !ParseVertex(v_token, &v)) {
      std::fprintf(stderr, "error: '%s %s' is not a vertex-id pair\n",
                   u_token.c_str(), v_token.c_str());
      return 2;
    }
    const VertexPair pair{u, v};
    answer({&pair, 1});
  }
  return 0;
}
