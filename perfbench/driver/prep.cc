// Untimed input generation, run in its own process so that nothing it
// allocates (the truth oracle above all) shows in the measured run's memory.
// Writes the dataset stand-in as an edge-list file, the truth-labeled query
// pool, and, for snapshot-served workloads, the two index snapshots the run
// loads and hot-swaps between.

#include "prep.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "baselines/factory.h"
#include "core/reachability.h"
#include "datasets/registry.h"
#include "graph/graph_io.h"
#include "query/workload.h"
#include "server/snapshot.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using reach::Digraph;
using reach::ReachabilityIndex;
using reach::Vertex;

/// Pairs sampled from the pool and re-answered by plain BFS, anchoring the
/// truth oracle itself.
constexpr size_t kBfsCrossChecks = 2000;

int Fail(const std::string& what) {
  std::fprintf(stderr, "prep: %s\n", what.c_str());
  return 1;
}

/// Adds up to `want` distinct reachable pairs (u, v), u != v: sources in
/// random order, each contributing a uniform sample of at most
/// kPairsPerSource of its BFS descendants. Walk-generated positives repeat
/// too often on citation graphs (walks pile up on the oldest papers) to
/// fill a pool of 10^6 distinct pairs.
void DrawReachable(const Digraph& dag, size_t want, reach::Rng* rng,
                   std::vector<Pair>* out) {
  constexpr size_t kPairsPerSource = 32;
  std::vector<Vertex> sources(dag.num_vertices());
  for (Vertex v = 0; v < sources.size(); ++v) sources[v] = v;
  reach::Shuffle(&sources, rng);
  std::vector<uint32_t> seen_by(dag.num_vertices(), 0);
  std::vector<Vertex> reached;
  uint32_t stamp = 0;
  for (const Vertex source : sources) {
    if (want == 0) break;
    // BFS from `source`; `reached` collects its strict descendants.
    ++stamp;
    reached.clear();
    seen_by[source] = stamp;
    const auto visit = [&](Vertex from) {
      for (const Vertex to : dag.OutNeighbors(from)) {
        if (seen_by[to] != stamp) {
          seen_by[to] = stamp;
          reached.push_back(to);
        }
      }
    };
    visit(source);
    for (size_t head = 0; head < reached.size(); ++head) visit(reached[head]);
    const size_t take = std::min({kPairsPerSource, reached.size(), want});
    for (size_t i = 0; i < take; ++i) {
      std::swap(reached[i], reached[i + rng->Uniform(reached.size() - i)]);
      out->push_back(Pair{source, reached[i], true});
    }
    want -= take;
  }
}

/// Draws `spec.pool_size` distinct pairs (u != v) labeled by `truth`. An
/// equal pool holds exactly half reachable pairs. Returns an error message,
/// empty on success.
std::string DrawPool(const WorkloadSpec& spec, const Digraph& dag,
                     const ReachabilityIndex& truth, uint64_t seed,
                     std::vector<Pair>* pool) {
  reach::Rng rng(seed);
  if (spec.equal_pool) DrawReachable(dag, spec.pool_size / 2, &rng, pool);
  // Uniform random pairs (the query module's random workload) fill the
  // rest: all of it for a random pool, only the unreachable ones for an
  // equal pool.
  std::unordered_set<uint64_t> seen;
  for (const Pair& pair : *pool) seen.insert((uint64_t{pair.u} << 32) | pair.v);
  for (uint64_t round = 0; round < 16 && pool->size() < spec.pool_size;
       ++round) {
    reach::WorkloadOptions options;
    options.num_queries = spec.pool_size;
    options.seed = rng.Fork(round).Next();
    const reach::Workload batch =
        MakeRandomWorkload(dag, truth.oracle(), options);
    for (const reach::Query& query : batch.queries) {
      if (pool->size() == spec.pool_size) break;
      if (query.from == query.to || (spec.equal_pool && query.reachable)) {
        continue;
      }
      if (seen.insert((uint64_t{query.from} << 32) | query.to).second) {
        pool->push_back(Pair{query.from, query.to, query.reachable});
      }
    }
  }
  if (pool->size() < spec.pool_size) {
    return "drew only " + std::to_string(pool->size()) + " distinct pairs";
  }
  // Every label, BFS-derived ones included, must agree with the truth.
  for (const Pair& pair : *pool) {
    if (truth.Reachable(pair.u, pair.v) != pair.reachable) {
      return "the truth oracle disagrees with a BFS-derived label";
    }
  }
  reach::Shuffle(pool, &rng);
  return "";
}

}  // namespace

int RunPrep(const WorkloadSpec& spec, uint64_t seed, const std::string& dir) {
  const reach::StatusOr<reach::DatasetSpec> dataset =
      reach::FindDataset(spec.dataset);
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  const std::string graph_path = dir + "/graph.txt";
  const reach::Status written =
      reach::WriteGraphFile(reach::MakeDataset(*dataset), graph_path);
  if (!written.ok()) return Fail(written.ToString());
  // Everything below uses the graph exactly as the run will read it back.
  const reach::StatusOr<Digraph> graph = reach::ReadEdgeListFile(graph_path);
  if (!graph.ok()) return Fail(graph.status().ToString());

  reach::StatusOr<ReachabilityIndex> truth =
      ReachabilityIndex::Build(*graph, reach::MakeOracle(spec.truth));
  if (!truth.ok()) return Fail("truth build: " + truth.status().ToString());
  // Pairs are drawn in vertex-id space; the stand-ins are DAGs, whose
  // condensation is the identity.
  if (truth->num_components() != graph->num_vertices()) {
    return Fail("dataset " + spec.dataset + " is not a DAG");
  }

  std::vector<Pair> pool;
  const std::string drawn = DrawPool(spec, truth->dag(), *truth, seed, &pool);
  if (!drawn.empty()) return Fail(drawn);
  std::unique_ptr<reach::ReachabilityOracle> bfs = reach::MakeOracle("BFS");
  if (!bfs->Build(truth->dag()).ok()) return Fail("BFS build");
  for (size_t i = 0; i < kBfsCrossChecks && i < pool.size(); ++i) {
    if (bfs->Reachable(pool[i].u, pool[i].v) != pool[i].reachable) {
      return Fail("truth oracle disagrees with BFS");
    }
  }
  if (!WritePairs(dir + "/pairs.bin", pool)) return Fail("write pairs");

  if (spec.name == "serve-batch-reload-hl") {
    const reach::StatusOr<ReachabilityIndex> index =
        ReachabilityIndex::Build(*graph, reach::MakeOracle(spec.method));
    if (!index.ok()) return Fail("index build: " + index.status().ToString());
    for (const char* name : {"/a.snap", "/b.snap"}) {
      const reach::Status saved = reach::server::SaveIndexSnapshot(
          dir + name, spec.method, graph->num_vertices(), graph->num_edges(),
          index->oracle());
      if (!saved.ok()) return Fail("snapshot: " + saved.ToString());
    }
  }
  std::fprintf(stderr, "prep: %s V=%zu E=%zu pool=%zu\n", spec.dataset.c_str(),
               graph->num_vertices(), graph->num_edges(), pool.size());
  return 0;
}

}  // namespace perfbench
