#include "baselines/chain_oracle.h"

#include <algorithm>

#include "util/timer.h"

namespace reach {

Status ChainOracle::BuildIndex(const Dag& dag) {
  Timer timer;
  const Digraph& g = dag.graph();
  const size_t n = g.num_vertices();

  // Greedy chain decomposition: walk forward in topological order, always
  // extending the current chain to an unassigned successor.
  chain_of_.assign(n, UINT32_MAX);
  pos_in_chain_.assign(n, 0);
  uint32_t next_chain = 0;
  for (Vertex start : dag.order()) {
    if (chain_of_[start] != UINT32_MAX) continue;
    uint32_t pos = 0;
    Vertex v = start;
    while (true) {
      chain_of_[v] = next_chain;
      pos_in_chain_[v] = pos++;
      Vertex next = UINT32_MAX;
      for (Vertex w : g.OutNeighbors(v)) {
        if (chain_of_[w] == UINT32_MAX) {
          next = w;
          break;
        }
      }
      if (next == UINT32_MAX) break;
      v = next;
    }
    ++next_chain;
  }
  num_chains_ = next_chain;

  // Bottom-up closure: reach_[v] = merge of successors' tables, keeping the
  // minimum position per chain, plus v's own (chain, pos).
  reach_.assign(n, {});
  uint64_t stored = 0;
  size_t processed = 0;
  std::vector<uint64_t> merged;
  for (size_t i = n; i-- > 0;) {
    const Vertex v = dag.order()[i];
    merged.clear();
    merged.push_back(PackEntry(chain_of_[v], pos_in_chain_[v]));
    for (Vertex w : g.OutNeighbors(v)) {
      merged.insert(merged.end(), reach_[w].begin(), reach_[w].end());
    }
    std::sort(merged.begin(), merged.end());
    // Keep the smallest position for each chain: entries are sorted by
    // (chain, pos), so the first entry of each chain wins.
    std::vector<uint64_t>& table = reach_[v];
    table.clear();
    uint32_t last_chain = UINT32_MAX;
    for (uint64_t entry : merged) {
      const uint32_t chain = static_cast<uint32_t>(entry >> 32);
      if (chain != last_chain) {
        table.push_back(entry);
        last_chain = chain;
      }
    }
    table.shrink_to_fit();
    stored += table.size();
    if ((++processed & 0xff) == 0) {
      if (budget_.max_index_integers > 0 &&
          2 * stored > budget_.max_index_integers) {
        return Status::ResourceExhausted("PT/chain closure over size budget");
      }
      if (budget_.max_seconds > 0 &&
          timer.ElapsedSeconds() > budget_.max_seconds) {
        return Status::ResourceExhausted("PT/chain over time budget");
      }
    }
  }
  return Status::OK();
}

bool ChainOracle::Reachable(Vertex u, Vertex v) const {
  if (u == v) return true;
  const uint32_t chain = chain_of_[v];
  const std::vector<uint64_t>& table = reach_[u];
  // First entry of v's chain, if any: its position is the minimum reachable.
  auto it = std::lower_bound(table.begin(), table.end(),
                             PackEntry(chain, 0));
  if (it == table.end() || static_cast<uint32_t>(*it >> 32) != chain) {
    return false;
  }
  return static_cast<uint32_t>(*it & 0xffffffffu) <= pos_in_chain_[v];
}

uint64_t ChainOracle::IndexSizeIntegers() const {
  // Each packed entry counts as two integers (chain, pos), plus the two
  // per-vertex assignment arrays.
  uint64_t total = 2 * chain_of_.size();
  for (const auto& table : reach_) total += 2 * table.size();
  return total;
}

uint64_t ChainOracle::IndexSizeBytes() const {
  uint64_t bytes = (chain_of_.size() + pos_in_chain_.size()) * sizeof(uint32_t);
  for (const auto& table : reach_) bytes += table.size() * sizeof(uint64_t);
  return bytes;
}

}  // namespace reach
