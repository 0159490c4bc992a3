#include "graph/topology.h"

#include <algorithm>
#include <deque>

namespace reach {

std::optional<std::vector<Vertex>> TopologicalOrder(const Digraph& g) {
  const size_t n = g.num_vertices();
  std::vector<uint32_t> in_degree(n);
  std::vector<Vertex> order;
  order.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    in_degree[v] = static_cast<uint32_t>(g.InDegree(v));
    if (in_degree[v] == 0) order.push_back(v);
  }
  for (size_t head = 0; head < order.size(); ++head) {
    const Vertex v = order[head];
    for (Vertex w : g.OutNeighbors(v)) {
      if (--in_degree[w] == 0) order.push_back(w);
    }
  }
  if (order.size() != n) return std::nullopt;  // Cycle.
  return order;
}

std::vector<uint32_t> OrderPositions(const std::vector<Vertex>& order) {
  std::vector<uint32_t> position(order.size());
  for (uint32_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  return position;
}

StatusOr<Dag> Dag::Check(const Digraph& g) {
  std::optional<std::vector<Vertex>> order = TopologicalOrder(g);
  if (!order) {
    return Status::InvalidArgument("graph has a cycle; a DAG is required");
  }
  return Dag(g, std::move(*order));
}

std::vector<uint32_t> Dag::LongestPathLevels(bool to_sinks) const {
  const size_t n = order_.size();
  std::vector<uint32_t> level(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const Vertex v = order_[to_sinks ? n - 1 - i : i];
    for (const Vertex w :
         to_sinks ? graph_->OutNeighbors(v) : graph_->InNeighbors(v)) {
      level[v] = std::max(level[v], level[w] + 1);
    }
  }
  return level;
}

std::vector<uint32_t> BfsDistances(const Digraph& g, Vertex source) {
  std::vector<uint32_t> dist(g.num_vertices(), UINT32_MAX);
  std::deque<Vertex> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop_front();
    for (Vertex w : g.OutNeighbors(v)) {
      if (dist[w] == UINT32_MAX) {
        dist[w] = dist[v] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

bool BfsReachable(const Digraph& g, Vertex source, Vertex target) {
  if (source == target) return true;
  std::vector<bool> visited(g.num_vertices(), false);
  std::vector<Vertex> queue{source};
  visited[source] = true;
  for (size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    for (Vertex w : g.OutNeighbors(v)) {
      if (w == target) return true;
      if (!visited[w]) {
        visited[w] = true;
        queue.push_back(w);
      }
    }
  }
  return false;
}

}  // namespace reach
