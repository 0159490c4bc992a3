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
//   3. Balanced sizes: the SIMD block-compare kernel (SimdIntersects) on
//      the SSE2 and AVX2 tiers when the small side has at least
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
/// is pure overhead. SSE2's 4-lane window never recouped its setup (128:
/// 4096 uniform: 1425 vs scalar 1167), so the vector probe is compiled at
/// tier 2 only and tier 1 stays on scalar gallop.
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
/// each taking its vector kernel when the compiled tier has one
/// (util/simd.h). Answers are bit-identical on every tier.
inline bool SortedIntersects(std::span<const uint32_t> a,
                             std::span<const uint32_t> b) {
  if (!SortedRangesOverlap(a, b)) return false;
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() * kGallopRatio < b.size()) {
#if REACH_SIMD_TIER >= 2
    if (b.size() < a.size() * kSimdGallopMaxRatio) {
      return SimdGallopIntersects(a, b);
    }
#endif
    return GallopIntersects(a, b);
  }
  if constexpr (kSimdTier > 0) {
    if (a.size() >= kSimdMinBalanced) return SimdIntersects(a, b);
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
/// marked sets. `*keys_read` grows by the keys of `row` the scan compared,
/// the one it stopped at included (none after a window reject).
inline bool MarkedIntersects(std::span<const uint32_t> row,
                             std::span<const uint32_t> marked,
                             const uint32_t* marks, uint32_t epoch,
                             uint64_t* keys_read) {
  if (!SortedRangesOverlap(row, marked)) return false;
  const uint32_t last = marked.back();
  for (size_t i = 0; i < row.size(); ++i) {
    const uint32_t key = row[i];
    if (key > last || marks[key] == epoch) {
      *keys_read += i + 1;
      return key <= last;
    }
  }
  *keys_read += row.size();
  return false;
}

/// Sorts and deduplicates in place.
inline void SortUnique(std::vector<uint32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace reach

#endif  // REACH_UTIL_SORTED_OPS_H_
