// Algorithms on sorted uint32 ranges. Hop labels are stored as sorted
// arrays (the paper, Section 1, attributes most of 2-hop's reported query
// slowness to set-based label storage; merge intersection on sorted arrays
// removes that gap), so these little routines are the query hot path.
//
// The intersection-exists test is adaptive (see SortedIntersects):
//
//   1. O(1) range-overlap rejection: two sorted ranges whose [front, back]
//      windows do not overlap cannot intersect. Distribution Labeling's
//      total-order keys make this fire constantly — a low-order vertex's
//      Lout holds only high positions while a high-order vertex's Lin holds
//      only low ones.
//   2. Galloping (exponential-search) scan when one side is much smaller
//      than the other (|small| * kGallopRatio < |large|): each element of
//      the small side is located in the large side in O(log gap) instead of
//      scanning the gap linearly — O(|small| * log |large|) total. AVX2
//      builds resolve the probe's final window vectorized at moderate skew
//      (SimdGallopIntersects, util/simd.h; see kSimdGallopMaxRatio).
//   3. Balanced sizes: the SIMD block-compare kernel (SimdIntersects) when
//      compiled in, enabled, and the small side has at least
//      kSimdMinBalanced elements; the scalar two-pointer merge otherwise.
//      Both are O(|a| + |b|), the block kernel retires one W-lane block per
//      branchless step.
//
// The crossover constants kGallopRatio and kSimdMinBalanced are measured,
// not guessed: see the BM_Intersect* suite in bench/bench_micro.cc.

#ifndef REACH_UTIL_SORTED_OPS_H_
#define REACH_UTIL_SORTED_OPS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/simd.h"

namespace reach {

/// Size ratio beyond which SortedIntersects switches from the (merge or
/// block) scan to galloping: gallop when |small| * kGallopRatio < |large|.
/// Measured with BM_Intersect{Merge,Gallop,Simd,SimdGallop} (bench_micro)
/// on uniform, clustered-runs, and first-hit key distributions (AVX2
/// numbers; SSE2 tracks the same shape):
///   16:128  (ratio 8)   merge 198ns / gallop 106 / simd-block 56
///   16:512  (ratio 32)  merge ~760  / gallop 137 / simd-block 209
///   16:1600 (ratio 100) merge 2722  / gallop 186 / simd-block 742
/// Clustered keys shrink everything but keep the same ordering. Scalar
/// gallop overtakes merge right at ratio 8 and overtakes the block kernel
/// between ratios 8 and 32; ratio 8 stays the switch point because the
/// block kernel only back-fills the 8..16 band (a few ns either way) while
/// merge loses badly past it.
inline constexpr size_t kGallopRatio = 8;

/// The gallop tier takes the vectorized probe (SimdGallopIntersects) only
/// on the AVX2 tier and only at moderate skew — |large| below |small| *
/// this ratio. Measured: AVX2 wins at 128:4096 (936ns vs scalar 1180) but
/// loses at 128:128000 (2719 vs 2194) and on clustered 16:1600 (114 vs
/// 76) — at extreme skew the probe lands in one cache line and the scalar
/// binary-search descent is already minimal, so the 8-lane window compare
/// is pure overhead. SSE2's 4-lane window never recoups its setup (128:
/// 4096 uniform: 1425 vs scalar 1167), so tier 1 stays on scalar gallop.
inline constexpr size_t kSimdGallopMaxRatio = 64;

/// Minimum size of the smaller side before the balanced path uses the SIMD
/// block kernel: one full SSE2/AVX2 comparison block. Measured by
/// BM_IntersectSimd vs BM_IntersectMerge — the block kernel already wins
/// 3.3x at 8:8 on AVX2 (3.7ns vs 12.0) and 1.9x on SSE2, and the win grows
/// with size (128:128 uniform: 103ns vs 244, 2.4x). The only shape where
/// merge stays ahead is an immediate first-element hit (1.3ns vs ~2-3.5ns
/// fixed vector setup), which the threshold cannot see; the ~2ns loss
/// there is accepted for the 2-3x win everywhere else.
inline constexpr size_t kSimdMinBalanced = 8;

/// O(1) pretest: true when the [front, back] windows of two sorted
/// non-empty ranges overlap. Disjoint windows cannot share an element.
inline bool SortedRangesOverlap(std::span<const uint32_t> a,
                                std::span<const uint32_t> b) {
  return !a.empty() && !b.empty() && a.back() >= b.front() &&
         b.back() >= a.front();
}

/// Two-pointer merge scan: O(|a| + |b|). Exposed (rather than folded into
/// SortedIntersects) so the micro benchmarks can measure each kernel alone.
inline bool MergeIntersects(std::span<const uint32_t> a,
                            std::span<const uint32_t> b) {
  const uint32_t* pa = a.data();
  const uint32_t* ea = pa + a.size();
  const uint32_t* pb = b.data();
  const uint32_t* eb = pb + b.size();
  while (pa != ea && pb != eb) {
    if (*pa < *pb) {
      ++pa;
    } else if (*pb < *pa) {
      ++pb;
    } else {
      return true;
    }
  }
  return false;
}

/// Galloping scan: for each element of `small`, exponential-search the
/// still-unscanned suffix of `large` for it. O(|small| * log |large|);
/// wins when `large` dwarfs `small` (both must be sorted).
inline bool GallopIntersects(std::span<const uint32_t> small,
                             std::span<const uint32_t> large) {
  const uint32_t* lo = large.data();
  const uint32_t* const end = large.data() + large.size();
  for (const uint32_t x : small) {
    // Exponential probe: find a window [lo + step/2, lo + step] whose far
    // end is >= x, then binary-search inside it.
    size_t step = 1;
    const size_t remaining = static_cast<size_t>(end - lo);
    while (step < remaining && lo[step - 1] < x) step <<= 1;
    const uint32_t* hi = lo + std::min(step, remaining);
    lo = std::lower_bound(lo + step / 2, hi, x);
    if (lo == end) return false;  // x and everything after it are too big.
    if (*lo == x) return true;
  }
  return false;
}

/// True if the two sorted ranges share at least one element. Adaptive:
/// range rejection, then gallop or merge by size ratio (header comment),
/// each tier taking its vector kernel when compiled in and enabled
/// (util/simd.h). Answers are bit-identical with SIMD on or off.
inline bool SortedIntersects(std::span<const uint32_t> a,
                             std::span<const uint32_t> b) {
  if (!SortedRangesOverlap(a, b)) return false;
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() * kGallopRatio < b.size()) {
    if (SimdEnabled() && kSimdTier >= 2 &&
        b.size() < a.size() * kSimdGallopMaxRatio) {
      return SimdGallopIntersects(a, b);
    }
    return GallopIntersects(a, b);
  }
  if (SimdEnabled() && a.size() >= kSimdMinBalanced) {
    return SimdIntersects(a, b);
  }
  return MergeIntersects(a, b);
}

/// The build-phase probe of Distribution Labeling (Pruned Landmark
/// Labeling's marked root, Akiba et al. 2013): true iff sorted `row` shares
/// a key with sorted `marked`, whose keys are exactly those set to `epoch`
/// in `marks` (indexed by key, so every key is below its size). One side is
/// marked once and probed by many rows; each probe is the window reject
/// plus a scan of `row` that stops past `marked.back()`. Marks left from an
/// older epoch never equal `epoch`, so the array is never cleared between
/// marked sets.
inline bool MarkedIntersects(std::span<const uint32_t> row,
                             std::span<const uint32_t> marked,
                             const uint32_t* marks, uint32_t epoch) {
  if (!SortedRangesOverlap(row, marked)) return false;
  const uint32_t last = marked.back();
  for (const uint32_t key : row) {
    if (key > last) return false;
    if (marks[key] == epoch) return true;
  }
  return false;
}

/// Binary search membership test.
inline bool SortedContains(std::span<const uint32_t> v, uint32_t x) {
  return std::binary_search(v.begin(), v.end(), x);
}

/// Inserts `x` into sorted vector `v` if absent. Returns true if inserted.
/// A key above the back is a plain push_back: Distribution Labeling's keys
/// are order positions, so nearly every label append takes that path
/// (BM_SortedInsertAppend pins it).
inline bool SortedInsert(std::vector<uint32_t>* v, uint32_t x) {
  if (v->empty() || v->back() < x) {
    v->push_back(x);
    return true;
  }
  auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it != v->end() && *it == x) return false;
  v->insert(it, x);
  return true;
}

/// Merges sorted `src` into sorted `dst`, dropping duplicates. When `src`
/// lies entirely at or above `dst`'s back — the common case for ordered
/// hop admissions, where every new key exceeds the keys already stored —
/// the merge degenerates to an in-place append (no fresh allocation, no
/// re-copy of the `dst` prefix; BM_SortedUnionAppend vs
/// BM_SortedUnionMergeFallback pins the win — 317ns vs 2650ns at 1024).
inline void SortedUnionInto(std::vector<uint32_t>* dst,
                            const std::vector<uint32_t>& src) {
  if (src.empty()) return;
  if (dst->empty()) {
    *dst = src;
    return;
  }
  if (src.front() >= dst->back()) {
    // Sorted-unique inputs: at most the seam element can repeat.
    dst->insert(dst->end(),
                src.begin() + (src.front() == dst->back() ? 1 : 0),
                src.end());
    return;
  }
  std::vector<uint32_t> out;
  out.reserve(dst->size() + src.size());
  std::set_union(dst->begin(), dst->end(), src.begin(), src.end(),
                 std::back_inserter(out));
  dst->swap(out);
}

/// Sorts and deduplicates in place.
inline void SortUnique(std::vector<uint32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// Intersection of two sorted ranges, appended to `out`.
inline void SortedIntersection(std::span<const uint32_t> a,
                               std::span<const uint32_t> b,
                               std::vector<uint32_t>* out) {
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(*out));
}

}  // namespace reach

#endif  // REACH_UTIL_SORTED_OPS_H_
