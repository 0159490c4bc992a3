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
//      scanning the gap linearly — O(|small| * log |large|) total.
//   3. Balanced sizes: the SSE2 block-compare kernel (SimdIntersects,
//      util/simd.h) when the small side has at least kSimdMinBalanced
//      elements; the scalar two-pointer merge otherwise. Both are
//      O(|a| + |b|), the block kernel retires one 4-lane block per
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
/// Measured with BM_Intersect{Merge,Gallop,Simd} (bench_micro) on the SSE2
/// tier, uniform keys, median of 5:
///   16:128  (ratio 8)   merge 115ns / gallop 104 / simd-block 59
///   16:512  (ratio 32)  merge 457   / gallop 133 / simd-block 228
///   16:1600 (ratio 100) merge 1454  / gallop 218 / simd-block 724
/// Clustered keys shrink everything but keep the same ordering (ratio 32:
/// merge 364 / gallop 72 / simd-block 176). Scalar gallop overtakes merge
/// right at ratio 8 and overtakes the block kernel between ratios 8 and
/// 32; ratio 8 stays the switch point because the block kernel only
/// back-fills the 8..16 band while merge loses badly past it.
inline constexpr size_t kGallopRatio = 8;

/// Minimum size of the smaller side before the balanced path uses the SIMD
/// block kernel. Measured by BM_IntersectSimd vs BM_IntersectMerge on the
/// SSE2 tier (uniform keys, median of 5): the block kernel wins 1.9x at
/// 4:4 (3.3ns vs 6.3), 1.7x at 8:8 (6.5 vs 10.9) and 1.6x at 128:128 (130
/// vs 212). So the crossover sits at one 4-lane block or below, and 8 is a
/// conservative threshold. The only shape where merge stays ahead is an
/// immediate first-element hit (1.4ns vs 1.8 at 8:8), which the threshold
/// cannot see.
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
/// the merge taking the block kernel when the compiled tier has it
/// (util/simd.h). Answers are bit-identical on every tier.
inline bool SortedIntersects(std::span<const uint32_t> a,
                             std::span<const uint32_t> b) {
  if (!SortedRangesOverlap(a, b)) return false;
  if (a.size() > b.size()) std::swap(a, b);
  if (a.size() * kGallopRatio < b.size()) return GallopIntersects(a, b);
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
