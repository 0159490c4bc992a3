#include "core/prefilter.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <ostream>
#include <utility>

#include "graph/topology.h"

namespace reach {

namespace {

// "RPREFLT2" little-endian: the prefilter auxiliary-array section that
// precedes the wrapped oracle's own sealed blob in a snapshot. Version 2
// appended a zero pad after the aux arrays so the wrapped blob starts
// 8-byte aligned relative to the section start — the alignment the
// zero-copy mapped load path (LoadIndexMapped) requires.
constexpr uint64_t kPrefilterMagic = 0x32544C4645525052ULL;

// Bounds-checked sequential reads over the untrusted aux section: a read
// running past the end fails instead of touching bytes past the region.
struct AuxReader {
  std::span<const std::byte> bytes;
  size_t at = 0;

  bool Read(void* out, size_t count) {
    if (count > bytes.size() - at) return false;
    if (count > 0) std::memcpy(out, bytes.data() + at, count);
    at += count;
    return true;
  }
};

template <typename T>
bool ReadPod(AuxReader& in, T* value) {
  return in.Read(value, sizeof(T));
}

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

// `count` is only ever the cross-checked vertex count (or the validated
// support count <= kMaxSupports), so the allocation is bounded by state the
// caller already owns — a forged header cannot inflate it.
template <typename T>
bool ReadArray(AuxReader& in, size_t count, std::vector<T>* out) {
  out->resize(count);
  return in.Read(out->data(), count * sizeof(T));
}

template <typename T>
void WriteArray(std::ostream& out, const std::vector<T>& values) {
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(T)));
}

// Serialized aux-section size for n vertices and k supports: header
// (magic, n, k), the support list, seven u32 arrays, two u64 mask arrays.
// Deterministic in (n, k), so writer and both readers agree on the
// alignment pad without any stream positioning.
size_t AuxSectionBytes(size_t n, size_t k) {
  return 2 * sizeof(uint64_t) + sizeof(uint32_t) + k * sizeof(Vertex) +
         7 * n * sizeof(uint32_t) + 2 * n * sizeof(uint64_t);
}

// Zero bytes after the aux section so the wrapped blob starts 8-aligned
// relative to the prefilter section start.
size_t AuxPadBytes(size_t n, size_t k) {
  return (sizeof(uint64_t) - AuxSectionBytes(n, k) % sizeof(uint64_t)) %
         sizeof(uint64_t);
}

}  // namespace

PrefilterOracle::PrefilterOracle(std::unique_ptr<ReachabilityOracle> inner)
    : inner_(std::move(inner)) {}

std::string PrefilterOracle::name() const { return inner_->name() + "+pf"; }

bool PrefilterOracle::ConcurrentQuerySafe() const {
  return inner_->ConcurrentQuerySafe();
}

bool PrefilterOracle::SupportsSnapshot() const {
  return inner_->SupportsSnapshot();
}

uint64_t PrefilterOracle::AuxIntegers() const {
  // Seven uint32 arrays of n entries, the support ids, and two uint64 mask
  // arrays counted as two integers per entry.
  return 7 * static_cast<uint64_t>(n_) + supports_.size() +
         4 * static_cast<uint64_t>(n_);
}

uint64_t PrefilterOracle::AuxBytes() const {
  return (topo_pos_.size() + tree_in_.size() + tree_out_.size() +
          fmax_.size() + bmin_.size() + flevel_.size() + blevel_.size() +
          supports_.size()) *
             sizeof(uint32_t) +
         (fmask_.size() + bmask_.size()) * sizeof(uint64_t) +
         records_.size() * sizeof(QueryRecord);
}

uint64_t PrefilterOracle::IndexSizeIntegers() const {
  return AuxIntegers() + inner_->IndexSizeIntegers();
}

uint64_t PrefilterOracle::IndexSizeBytes() const {
  return AuxBytes() + inner_->IndexSizeBytes();
}

PrefilterStageCounters PrefilterOracle::counters() const {
  PrefilterStageCounters c;
  c.interval_yes = interval_yes_.load(std::memory_order_relaxed);
  c.interval_no = interval_no_.load(std::memory_order_relaxed);
  c.support_yes = support_yes_.load(std::memory_order_relaxed);
  c.support_no = support_no_.load(std::memory_order_relaxed);
  c.level_no = level_no_.load(std::memory_order_relaxed);
  c.fallback = fallback_.load(std::memory_order_relaxed);
  return c;
}

void PrefilterOracle::ResetCounters() {
  interval_yes_.store(0, std::memory_order_relaxed);
  interval_no_.store(0, std::memory_order_relaxed);
  support_yes_.store(0, std::memory_order_relaxed);
  support_no_.store(0, std::memory_order_relaxed);
  level_no_.store(0, std::memory_order_relaxed);
  fallback_.store(0, std::memory_order_relaxed);
}

void PrefilterOracle::AnnotateBuildStats(BuildStats& stats) const {
  // The wrapped oracle's phases are the build's phases.
  const BuildStats& inner = inner_->build_stats();
  stats.order_millis = inner.order_millis;
  stats.label_millis = inner.label_millis;
  stats.seal_millis = inner.seal_millis;
  stats.search_millis = inner.search_millis;
  stats.cleanup_millis = inner.cleanup_millis;
  stats.append_millis = inner.append_millis;
  stats.batches = inner.batches;
  stats.order = inner.order;
  stats.prefilter_active = true;
  stats.prefilter = counters();
}

bool PrefilterOracle::Reachable(Vertex u, Vertex v) const {
  // The whole decision tree runs on two cache lines.
  const QueryRecord& ru = records_[u];
  const QueryRecord& rv = records_[v];
  // Stage 1a: spanning-forest interval containment. Tree edges are graph
  // edges, so v inside u's DFS interval proves a real u -> v path (and
  // covers u == v reflexively).
  if (ru.tree_in <= rv.tree_in && rv.tree_in <= ru.tree_out) {
    if (counting_) interval_yes_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // Stage 1b: topological-position bounds. Here u != v (containment above
  // caught equality), so u -> v forces pos[u] < pos[v], pos[v] inside u's
  // reachable-position range, and pos[u] inside v's reaching range.
  if (ru.topo_pos >= rv.topo_pos || rv.topo_pos > ru.fmax ||
      ru.topo_pos < rv.bmin) {
    if (counting_) interval_no_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Stage 2: support bits. A shared support s with u -> s and s -> v
  // proves YES; u -> v forces fmask[u] subset-of fmask[v] (anything
  // reaching u reaches v) and bmask[v] subset-of bmask[u].
  if ((ru.bmask & rv.fmask) != 0) {
    if (counting_) support_yes_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if ((ru.fmask & ~rv.fmask) != 0 || (rv.bmask & ~ru.bmask) != 0) {
    if (counting_) support_no_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Stage 3: level bounds. Every edge strictly increases the forward
  // longest-path level and strictly decreases the backward one.
  if (ru.flevel >= rv.flevel || ru.blevel <= rv.blevel) {
    if (counting_) level_no_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (counting_) fallback_.fetch_add(1, std::memory_order_relaxed);
  return inner_->Reachable(u, v);
}

void PrefilterOracle::PackRecords() {
  records_.resize(n_);
  for (size_t v = 0; v < n_; ++v) {
    QueryRecord& r = records_[v];
    r.tree_in = tree_in_[v];
    r.tree_out = tree_out_[v];
    r.topo_pos = topo_pos_[v];
    r.fmax = fmax_[v];
    r.bmin = bmin_[v];
    r.flevel = flevel_[v];
    r.blevel = blevel_[v];
    r.fmask = fmask_[v];
    r.bmask = bmask_[v];
  }
}

PrefilterVerdict PrefilterOracle::TopoIntervalStage(Vertex u, Vertex v) const {
  if (u == v) return PrefilterVerdict::kYes;
  if (tree_in_[u] <= tree_in_[v] && tree_in_[v] <= tree_out_[u]) {
    return PrefilterVerdict::kYes;
  }
  if (topo_pos_[u] >= topo_pos_[v] || topo_pos_[v] > fmax_[u] ||
      topo_pos_[u] < bmin_[v]) {
    return PrefilterVerdict::kNo;
  }
  return PrefilterVerdict::kMaybe;
}

PrefilterVerdict PrefilterOracle::SupportStage(Vertex u, Vertex v) const {
  if (u == v) return PrefilterVerdict::kYes;
  if ((bmask_[u] & fmask_[v]) != 0) return PrefilterVerdict::kYes;
  if ((fmask_[u] & ~fmask_[v]) != 0 || (bmask_[v] & ~bmask_[u]) != 0) {
    return PrefilterVerdict::kNo;
  }
  return PrefilterVerdict::kMaybe;
}

PrefilterVerdict PrefilterOracle::LevelStage(Vertex u, Vertex v) const {
  if (u == v) return PrefilterVerdict::kYes;
  if (flevel_[u] >= flevel_[v] || blevel_[u] <= blevel_[v]) {
    return PrefilterVerdict::kNo;
  }
  return PrefilterVerdict::kMaybe;
}

void PrefilterOracle::BuildAux(const Digraph& dag) {
  n_ = dag.num_vertices();
  const std::optional<std::vector<Vertex>> order = TopologicalOrder(dag);
  // Build() validated acyclicity before calling us.
  const std::vector<Vertex>& topo = *order;
  topo_pos_ = OrderPositions(topo);

  // fmax[u] = max topological position in u's reachable set (reverse topo
  // order); bmin[v] = min position among vertices reaching v (topo order).
  fmax_.assign(n_, 0);
  bmin_.assign(n_, 0);
  for (size_t i = n_; i-- > 0;) {
    const Vertex u = topo[i];
    uint32_t m = topo_pos_[u];
    for (const Vertex w : dag.OutNeighbors(u)) m = std::max(m, fmax_[w]);
    fmax_[u] = m;
  }
  for (size_t i = 0; i < n_; ++i) {
    const Vertex v = topo[i];
    uint32_t m = topo_pos_[v];
    for (const Vertex w : dag.InNeighbors(v)) m = std::min(m, bmin_[w]);
    bmin_[v] = m;
  }

  // Deterministic DFS spanning forest: roots in topological order,
  // children in ascending id order (OutNeighbors spans are sorted). The
  // interval of a vertex covers exactly its tree descendants.
  tree_in_.assign(n_, 0);
  tree_out_.assign(n_, 0);
  std::vector<uint8_t> visited(n_, 0);
  std::vector<std::pair<Vertex, size_t>> stack;
  uint32_t clock = 0;
  for (const Vertex root : topo) {
    if (visited[root]) continue;
    visited[root] = 1;
    tree_in_[root] = clock++;
    stack.emplace_back(root, size_t{0});
    while (!stack.empty()) {
      const Vertex u = stack.back().first;
      const std::span<const Vertex> out = dag.OutNeighbors(u);
      size_t& idx = stack.back().second;
      while (idx < out.size() && visited[out[idx]]) ++idx;
      if (idx == out.size()) {
        tree_out_[u] = clock - 1;
        stack.pop_back();
        continue;
      }
      const Vertex w = out[idx];
      ++idx;  // Advance through the reference before emplace invalidates it.
      visited[w] = 1;
      tree_in_[w] = clock++;
      stack.emplace_back(w, size_t{0});
    }
  }

  // Longest-path levels, both directions.
  flevel_ = LongestPathLevels(dag);
  const Digraph reversed = dag.Reversed();
  blevel_ = LongestPathLevels(reversed);

  // Supports: the k vertices with the largest (out+1)*(in+1) degree
  // product — the ones most likely to sit on many paths — ties broken by
  // smaller id for determinism. (A topological-span score, (fmax - pos) *
  // (pos - bmin), was measured too: it loses on hub-dominated graphs and
  // buys nothing on uniform-random ones, where the residue queries are
  // low-connectivity pairs no small support set can cover.)
  const size_t k = std::min<size_t>(kMaxSupports, n_);
  std::vector<Vertex> candidates(n_);
  std::iota(candidates.begin(), candidates.end(), Vertex{0});
  std::partial_sort(
      candidates.begin(), candidates.begin() + static_cast<std::ptrdiff_t>(k),
      candidates.end(), [&dag](Vertex a, Vertex b) {
        const uint64_t score_a =
            (static_cast<uint64_t>(dag.OutDegree(a)) + 1) *
            (static_cast<uint64_t>(dag.InDegree(a)) + 1);
        const uint64_t score_b =
            (static_cast<uint64_t>(dag.OutDegree(b)) + 1) *
            (static_cast<uint64_t>(dag.InDegree(b)) + 1);
        if (score_a != score_b) return score_a > score_b;
        return a < b;
      });
  supports_.assign(candidates.begin(),
                   candidates.begin() + static_cast<std::ptrdiff_t>(k));

  // Per-support forward/backward BFS filling the reachability bit masks
  // (reflexive: a support carries its own bit on both sides).
  fmask_.assign(n_, 0);
  bmask_.assign(n_, 0);
  std::vector<uint8_t> seen(n_, 0);
  std::vector<Vertex> queue;
  const auto mark = [&seen, &queue](const Digraph& g, Vertex source,
                                    uint64_t bit,
                                    std::vector<uint64_t>& mask) {
    std::fill(seen.begin(), seen.end(), 0);
    queue.clear();
    queue.push_back(source);
    seen[source] = 1;
    mask[source] |= bit;
    for (size_t head = 0; head < queue.size(); ++head) {
      const Vertex x = queue[head];
      for (const Vertex w : g.OutNeighbors(x)) {
        if (seen[w]) continue;
        seen[w] = 1;
        mask[w] |= bit;
        queue.push_back(w);
      }
    }
  };
  for (size_t i = 0; i < supports_.size(); ++i) {
    const uint64_t bit = uint64_t{1} << i;
    mark(dag, supports_[i], bit, fmask_);
    mark(reversed, supports_[i], bit, bmask_);
  }

  PackRecords();
}

Status PrefilterOracle::BuildIndex(const Digraph& dag) {
  REACH_RETURN_IF_ERROR(internal::ValidateDagInput(dag, "PrefilterOracle"));
  BuildAux(dag);
  inner_->set_budget(budget_);
  BuildOptions options;
  options.threads = build_threads();
  return inner_->Build(dag, options);
}

Status PrefilterOracle::SaveIndex(std::ostream& out) const {
  if (!inner_->SupportsSnapshot()) {
    return Status::NotSupported(name() + " does not support index snapshots");
  }
  WritePod(out, kPrefilterMagic);
  WritePod(out, static_cast<uint64_t>(n_));
  WritePod(out, static_cast<uint32_t>(supports_.size()));
  WriteArray(out, supports_);
  WriteArray(out, topo_pos_);
  WriteArray(out, tree_in_);
  WriteArray(out, tree_out_);
  WriteArray(out, fmax_);
  WriteArray(out, bmin_);
  WriteArray(out, flevel_);
  WriteArray(out, blevel_);
  WriteArray(out, fmask_);
  WriteArray(out, bmask_);
  const char pad[sizeof(uint64_t)] = {};
  out.write(pad, static_cast<std::streamsize>(
                     AuxPadBytes(n_, supports_.size())));
  if (!out) return Status::IOError("prefilter snapshot write failed");
  return inner_->SaveIndex(out);
}

Status PrefilterOracle::LoadIndexMapped(const Digraph& dag,
                                        MappedRegion region) {
  if (!inner_->SupportsSnapshot()) {
    return Status::NotSupported(name() + " does not support index snapshots");
  }
  // The aux tables are deep-validated and copied (see LoadAux); only the
  // wrapped labeling blob that follows is zero-copy.
  REACH_RETURN_IF_ERROR(LoadAux(dag, region.bytes()));
  // LoadAux consumed the aux section plus its alignment pad, so the inner
  // blob offset is 8-aligned relative to the (64-aligned) region start.
  const size_t consumed = AuxSectionBytes(n_, supports_.size()) +
                          AuxPadBytes(n_, supports_.size());
  return inner_->LoadMapped(dag, region.Subregion(consumed));
}

Status PrefilterOracle::LoadAux(const Digraph& dag,
                                std::span<const std::byte> bytes) {
  AuxReader in{bytes};
  uint64_t magic = 0;
  if (!ReadPod(in, &magic)) {
    return Status::Corruption("truncated prefilter snapshot header");
  }
  if (magic != kPrefilterMagic) {
    return Status::Corruption("prefilter snapshot magic mismatch");
  }
  uint64_t declared_n = 0;
  uint32_t declared_k = 0;
  if (!ReadPod(in, &declared_n) || !ReadPod(in, &declared_k)) {
    return Status::Corruption("truncated prefilter snapshot header");
  }
  const size_t n = dag.num_vertices();
  if (declared_n != n) {
    return Status::Corruption(
        "prefilter snapshot is for " + std::to_string(declared_n) +
        " vertices, graph has " + std::to_string(n));
  }
  if (declared_k > kMaxSupports || declared_k > n) {
    return Status::Corruption("prefilter support count " +
                              std::to_string(declared_k) +
                              " exceeds the allowed maximum");
  }
  n_ = n;
  if (!ReadArray(in, declared_k, &supports_)) {
    return Status::Corruption("truncated prefilter support list");
  }
  for (size_t i = 0; i < supports_.size(); ++i) {
    if (supports_[i] >= n) {
      return Status::Corruption("prefilter support id out of range");
    }
    for (size_t j = 0; j < i; ++j) {
      if (supports_[j] == supports_[i]) {
        return Status::Corruption("prefilter support ids not distinct");
      }
    }
  }
  const auto read_positions = [&in, n](std::vector<uint32_t>* out,
                                       const char* what) -> Status {
    if (!ReadArray(in, n, out)) {
      return Status::Corruption(std::string("truncated prefilter ") + what);
    }
    for (const uint32_t value : *out) {
      if (value >= n) {
        return Status::Corruption(std::string("prefilter ") + what +
                                  " entry out of range");
      }
    }
    return Status::OK();
  };
  REACH_RETURN_IF_ERROR(read_positions(&topo_pos_, "topo positions"));
  // The positions must form a permutation — a repeated position could
  // smuggle an unsound NO verdict past the position bound checks.
  {
    std::vector<uint8_t> used(n, 0);
    for (const uint32_t p : topo_pos_) {
      if (used[p]) {
        return Status::Corruption("prefilter topo positions repeat");
      }
      used[p] = 1;
    }
  }
  REACH_RETURN_IF_ERROR(read_positions(&tree_in_, "tree intervals (in)"));
  REACH_RETURN_IF_ERROR(read_positions(&tree_out_, "tree intervals (out)"));
  for (size_t v = 0; v < n; ++v) {
    if (tree_in_[v] > tree_out_[v]) {
      return Status::Corruption("prefilter tree interval inverted");
    }
  }
  REACH_RETURN_IF_ERROR(read_positions(&fmax_, "forward max positions"));
  REACH_RETURN_IF_ERROR(read_positions(&bmin_, "backward min positions"));
  REACH_RETURN_IF_ERROR(read_positions(&flevel_, "forward levels"));
  REACH_RETURN_IF_ERROR(read_positions(&blevel_, "backward levels"));
  const uint64_t allowed_bits = declared_k >= 64
                                    ? ~uint64_t{0}
                                    : (uint64_t{1} << declared_k) - 1;
  const auto read_masks = [&in, n, allowed_bits](std::vector<uint64_t>* out,
                                                 const char* what) -> Status {
    if (!ReadArray(in, n, out)) {
      return Status::Corruption(std::string("truncated prefilter ") + what);
    }
    for (const uint64_t mask : *out) {
      if ((mask & ~allowed_bits) != 0) {
        return Status::Corruption(std::string("prefilter ") + what +
                                  " has bits beyond the support count");
      }
    }
    return Status::OK();
  };
  REACH_RETURN_IF_ERROR(read_masks(&fmask_, "forward support masks"));
  REACH_RETURN_IF_ERROR(read_masks(&bmask_, "backward support masks"));
  // The writer pads the aux section with zeros up to the wrapped blob's
  // alignment boundary; anything else is not a snapshot it produced.
  char pad[sizeof(uint64_t)] = {};
  const size_t pad_bytes = AuxPadBytes(n, declared_k);
  if (!in.Read(pad, pad_bytes)) {
    return Status::Corruption("truncated prefilter padding");
  }
  for (size_t i = 0; i < pad_bytes; ++i) {
    if (pad[i] != 0) {
      return Status::Corruption("prefilter padding is not zero");
    }
  }
  PackRecords();
  return Status::OK();
}

}  // namespace reach
