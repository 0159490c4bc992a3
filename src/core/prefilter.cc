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

// Writes one snapshot column: `field` of every record, in vertex order.
template <typename Record, typename T>
void WriteColumn(std::ostream& out, const std::vector<Record>& records,
                 T Record::*field) {
  std::vector<T> column(records.size());
  for (size_t v = 0; v < records.size(); ++v) column[v] = records[v].*field;
  WriteArray(out, column);
}

// Reads one column of the untrusted aux section into scratch, rejects it
// unless every entry is `valid` (`invalid` completes the message), then
// scatters it into `field` of every record.
template <typename Record, typename T, typename Valid>
Status ReadColumn(AuxReader& in, T Record::*field, const std::string& what,
                  Valid valid, const char* invalid,
                  std::vector<Record>* records) {
  std::vector<T> column;
  if (!ReadArray(in, records->size(), &column)) {
    return Status::Corruption("truncated prefilter " + what);
  }
  for (const T value : column) {
    if (!valid(value)) return Status::Corruption("prefilter " + what + invalid);
  }
  for (size_t v = 0; v < column.size(); ++v) (*records)[v].*field = column[v];
  return Status::OK();
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

uint64_t PrefilterOracle::IndexSizeIntegers() const {
  // Seven uint32 fields per vertex, two uint64 masks counted as two
  // integers each, and the support ids.
  return 11 * static_cast<uint64_t>(records_.size()) + supports_.size() +
         inner_->IndexSizeIntegers();
}

uint64_t PrefilterOracle::IndexSizeBytes() const {
  return records_.size() * sizeof(QueryRecord) +
         supports_.size() * sizeof(Vertex) + inner_->IndexSizeBytes();
}

PrefilterStageCounters PrefilterOracle::counters() const {
  const auto load = [this](Counter counter) {
    return counts_[counter].load(std::memory_order_relaxed);
  };
  PrefilterStageCounters c;
  c.interval_yes = load(kIntervalYes);
  c.interval_no = load(kIntervalNo);
  c.support_yes = load(kSupportYes);
  c.support_no = load(kSupportNo);
  c.level_no = load(kLevelNo);
  c.fallback = load(kFallback);
  return c;
}

void PrefilterOracle::ResetCounters() {
  for (auto& count : counts_) count.store(0, std::memory_order_relaxed);
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
  stats.probes = inner.probes;
  stats.pruned = inner.pruned;
  stats.row_keys_read = inner.row_keys_read;
  stats.label_storage_bytes = inner.label_storage_bytes;
  stats.order = inner.order;
}

PrefilterVerdict PrefilterOracle::IntervalVerdict(const QueryRecord& u,
                                                  const QueryRecord& v) {
  // Spanning-forest interval containment. Tree edges are graph edges, so v
  // inside u's DFS interval proves a real u -> v path (and covers u == v
  // reflexively).
  if (u.tree_in <= v.tree_in && v.tree_in <= u.tree_out) {
    return PrefilterVerdict::kYes;
  }
  // Topological-position bounds. Here u != v (containment above caught
  // equality), so u -> v forces pos[u] < pos[v], pos[v] inside u's
  // reachable-position range, and pos[u] inside v's reaching range.
  if (u.topo_pos >= v.topo_pos || v.topo_pos > u.fmax ||
      u.topo_pos < v.bmin) {
    return PrefilterVerdict::kNo;
  }
  return PrefilterVerdict::kMaybe;
}

PrefilterVerdict PrefilterOracle::SupportVerdict(const QueryRecord& u,
                                                 const QueryRecord& v) {
  // A shared support s with u -> s and s -> v proves YES; u -> v forces
  // fmask[u] subset-of fmask[v] (anything reaching u reaches v) and
  // bmask[v] subset-of bmask[u].
  if ((u.bmask & v.fmask) != 0) return PrefilterVerdict::kYes;
  if ((u.fmask & ~v.fmask) != 0 || (v.bmask & ~u.bmask) != 0) {
    return PrefilterVerdict::kNo;
  }
  return PrefilterVerdict::kMaybe;
}

PrefilterVerdict PrefilterOracle::LevelVerdict(const QueryRecord& u,
                                               const QueryRecord& v) {
  // Every edge strictly increases the forward longest-path level and
  // strictly decreases the backward one.
  return u.flevel >= v.flevel || u.blevel <= v.blevel
             ? PrefilterVerdict::kNo
             : PrefilterVerdict::kMaybe;
}

bool PrefilterOracle::Reachable(Vertex u, Vertex v) const {
  // The whole decision tree runs on two cache lines.
  const QueryRecord& ru = records_[u];
  const QueryRecord& rv = records_[v];
  // Counts a definite verdict in its stage's counter and returns it.
  const auto settle = [this](PrefilterVerdict verdict, Counter yes,
                             Counter no) {
    const bool answer = verdict == PrefilterVerdict::kYes;
    counts_[answer ? yes : no].fetch_add(1, std::memory_order_relaxed);
    return answer;
  };
  PrefilterVerdict verdict = IntervalVerdict(ru, rv);
  if (verdict != PrefilterVerdict::kMaybe) {
    return settle(verdict, kIntervalYes, kIntervalNo);
  }
  verdict = SupportVerdict(ru, rv);
  if (verdict != PrefilterVerdict::kMaybe) {
    return settle(verdict, kSupportYes, kSupportNo);
  }
  if (LevelVerdict(ru, rv) == PrefilterVerdict::kNo) {
    counts_[kLevelNo].fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  counts_[kFallback].fetch_add(1, std::memory_order_relaxed);
  return inner_->Reachable(u, v);
}

PrefilterVerdict PrefilterOracle::TopoIntervalStage(Vertex u, Vertex v) const {
  if (u == v) return PrefilterVerdict::kYes;
  return IntervalVerdict(records_[u], records_[v]);
}

PrefilterVerdict PrefilterOracle::SupportStage(Vertex u, Vertex v) const {
  if (u == v) return PrefilterVerdict::kYes;
  return SupportVerdict(records_[u], records_[v]);
}

PrefilterVerdict PrefilterOracle::LevelStage(Vertex u, Vertex v) const {
  if (u == v) return PrefilterVerdict::kYes;
  return LevelVerdict(records_[u], records_[v]);
}

void PrefilterOracle::BuildAux(const Dag& proven) {
  const Digraph& dag = proven.graph();
  const size_t n = dag.num_vertices();
  const std::vector<Vertex>& topo = proven.order();
  const std::vector<uint32_t> topo_pos = OrderPositions(topo);

  // fmax[u] = max topological position in u's reachable set (reverse topo
  // order); bmin[v] = min position among vertices reaching v (topo order).
  std::vector<uint32_t> fmax(n, 0);
  std::vector<uint32_t> bmin(n, 0);
  for (size_t i = n; i-- > 0;) {
    const Vertex u = topo[i];
    uint32_t m = topo_pos[u];
    for (const Vertex w : dag.OutNeighbors(u)) m = std::max(m, fmax[w]);
    fmax[u] = m;
  }
  for (size_t i = 0; i < n; ++i) {
    const Vertex v = topo[i];
    uint32_t m = topo_pos[v];
    for (const Vertex w : dag.InNeighbors(v)) m = std::min(m, bmin[w]);
    bmin[v] = m;
  }

  // Deterministic DFS spanning forest: roots in topological order,
  // children in ascending id order (OutNeighbors spans are sorted). The
  // interval of a vertex covers exactly its tree descendants.
  std::vector<uint32_t> tree_in(n, 0);
  std::vector<uint32_t> tree_out(n, 0);
  std::vector<uint8_t> visited(n, 0);
  std::vector<std::pair<Vertex, size_t>> stack;
  uint32_t clock = 0;
  for (const Vertex root : topo) {
    if (visited[root]) continue;
    visited[root] = 1;
    tree_in[root] = clock++;
    stack.emplace_back(root, size_t{0});
    while (!stack.empty()) {
      const Vertex u = stack.back().first;
      const std::span<const Vertex> out = dag.OutNeighbors(u);
      size_t& idx = stack.back().second;
      while (idx < out.size() && visited[out[idx]]) ++idx;
      if (idx == out.size()) {
        tree_out[u] = clock - 1;
        stack.pop_back();
        continue;
      }
      const Vertex w = out[idx];
      ++idx;  // Advance through the reference before emplace invalidates it.
      visited[w] = 1;
      tree_in[w] = clock++;
      stack.emplace_back(w, size_t{0});
    }
  }

  // Longest-path levels, both directions, off the one topological order.
  const std::vector<uint32_t> flevel =
      proven.LongestPathLevels(/*to_sinks=*/false);
  const std::vector<uint32_t> blevel =
      proven.LongestPathLevels(/*to_sinks=*/true);

  // Supports: the k vertices with the largest (out+1)*(in+1) degree
  // product — the ones most likely to sit on many paths — ties broken by
  // smaller id for determinism. (A topological-span score, (fmax - pos) *
  // (pos - bmin), was measured too: it loses on hub-dominated graphs and
  // buys nothing on uniform-random ones, where the residue queries are
  // low-connectivity pairs no small support set can cover.)
  const size_t k = std::min<size_t>(kMaxSupports, n);
  std::vector<Vertex> candidates(n);
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
  std::vector<uint64_t> fmask(n, 0);
  std::vector<uint64_t> bmask(n, 0);
  std::vector<uint8_t> seen(n, 0);
  std::vector<Vertex> queue;
  const auto mark = [&dag, &seen, &queue](Vertex source, bool forward,
                                          uint64_t bit,
                                          std::vector<uint64_t>& mask) {
    std::fill(seen.begin(), seen.end(), 0);
    queue.clear();
    queue.push_back(source);
    seen[source] = 1;
    mask[source] |= bit;
    for (size_t head = 0; head < queue.size(); ++head) {
      const Vertex x = queue[head];
      for (const Vertex w :
           forward ? dag.OutNeighbors(x) : dag.InNeighbors(x)) {
        if (seen[w]) continue;
        seen[w] = 1;
        mask[w] |= bit;
        queue.push_back(w);
      }
    }
  };
  for (size_t i = 0; i < supports_.size(); ++i) {
    const uint64_t bit = uint64_t{1} << i;
    mark(supports_[i], /*forward=*/true, bit, fmask);
    mark(supports_[i], /*forward=*/false, bit, bmask);
  }

  // The columns above die here; the records are the only state kept.
  records_.resize(n);
  for (size_t v = 0; v < n; ++v) {
    QueryRecord& r = records_[v];
    r.tree_in = tree_in[v];
    r.tree_out = tree_out[v];
    r.topo_pos = topo_pos[v];
    r.fmax = fmax[v];
    r.bmin = bmin[v];
    r.flevel = flevel[v];
    r.blevel = blevel[v];
    r.fmask = fmask[v];
    r.bmask = bmask[v];
  }
}

Status PrefilterOracle::BuildIndex(const Dag& dag) {
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
  const size_t n = records_.size();
  WritePod(out, kPrefilterMagic);
  WritePod(out, static_cast<uint64_t>(n));
  WritePod(out, static_cast<uint32_t>(supports_.size()));
  WriteArray(out, supports_);
  WriteColumn(out, records_, &QueryRecord::topo_pos);
  WriteColumn(out, records_, &QueryRecord::tree_in);
  WriteColumn(out, records_, &QueryRecord::tree_out);
  WriteColumn(out, records_, &QueryRecord::fmax);
  WriteColumn(out, records_, &QueryRecord::bmin);
  WriteColumn(out, records_, &QueryRecord::flevel);
  WriteColumn(out, records_, &QueryRecord::blevel);
  WriteColumn(out, records_, &QueryRecord::fmask);
  WriteColumn(out, records_, &QueryRecord::bmask);
  const char pad[sizeof(uint64_t)] = {};
  out.write(pad,
            static_cast<std::streamsize>(AuxPadBytes(n, supports_.size())));
  if (!out) return Status::IOError("prefilter snapshot write failed");
  return inner_->SaveIndex(out);
}

Status PrefilterOracle::LoadIndexMapped(const Digraph& dag,
                                        MappedRegion region) {
  if (!inner_->SupportsSnapshot()) {
    return Status::NotSupported(name() + " does not support index snapshots");
  }
  // The aux columns are deep-validated and copied (see LoadAux); only the
  // wrapped labeling blob that follows is zero-copy.
  REACH_RETURN_IF_ERROR(LoadAux(dag, region.bytes()));
  // LoadAux consumed the aux section plus its alignment pad, so the inner
  // blob offset is 8-aligned relative to the (64-aligned) region start.
  const size_t n = records_.size();
  const size_t consumed = AuxSectionBytes(n, supports_.size()) +
                          AuxPadBytes(n, supports_.size());
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
  records_.assign(n, QueryRecord{});
  const auto read_positions = [&in, this, n](uint32_t QueryRecord::*field,
                                             const char* what) {
    return ReadColumn(
        in, field, what, [n](uint32_t value) { return value < n; },
        " entry out of range", &records_);
  };
  REACH_RETURN_IF_ERROR(
      read_positions(&QueryRecord::topo_pos, "topo positions"));
  // The positions must form a permutation — a repeated position could
  // smuggle an unsound NO verdict past the position bound checks.
  std::vector<uint8_t> used(n, 0);
  for (const QueryRecord& r : records_) {
    if (used[r.topo_pos]) {
      return Status::Corruption("prefilter topo positions repeat");
    }
    used[r.topo_pos] = 1;
  }
  REACH_RETURN_IF_ERROR(
      read_positions(&QueryRecord::tree_in, "tree intervals (in)"));
  REACH_RETURN_IF_ERROR(
      read_positions(&QueryRecord::tree_out, "tree intervals (out)"));
  for (const QueryRecord& r : records_) {
    if (r.tree_in > r.tree_out) {
      return Status::Corruption("prefilter tree interval inverted");
    }
  }
  REACH_RETURN_IF_ERROR(
      read_positions(&QueryRecord::fmax, "forward max positions"));
  REACH_RETURN_IF_ERROR(
      read_positions(&QueryRecord::bmin, "backward min positions"));
  REACH_RETURN_IF_ERROR(read_positions(&QueryRecord::flevel, "forward levels"));
  REACH_RETURN_IF_ERROR(
      read_positions(&QueryRecord::blevel, "backward levels"));
  const uint64_t allowed_bits = declared_k >= 64
                                    ? ~uint64_t{0}
                                    : (uint64_t{1} << declared_k) - 1;
  const auto read_masks = [&in, this, allowed_bits](
                              uint64_t QueryRecord::*field, const char* what) {
    return ReadColumn(
        in, field, what,
        [allowed_bits](uint64_t mask) { return (mask & ~allowed_bits) == 0; },
        " has bits beyond the support count", &records_);
  };
  REACH_RETURN_IF_ERROR(
      read_masks(&QueryRecord::fmask, "forward support masks"));
  REACH_RETURN_IF_ERROR(
      read_masks(&QueryRecord::bmask, "backward support masks"));
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
  return Status::OK();
}

}  // namespace reach
