// SIMD kernels for the sorted-uint32 intersection hot path, the
// compile-time feature detection that gates them, and the scalar merge
// they fall back to. The adaptive dispatch lives in util/sorted_ops.h.
//
// Compile-time tiers: kSimdTier is 2 when the translation unit is built
// with AVX2 (e.g. -march=x86-64-v3), 1 with baseline x86-64 SSE2, and 0
// elsewhere. The tier is the only switch: there is no runtime toggle, and
// tests check every kernel against MergeIntersects directly.
//
// Kernel shapes (both require sorted input, duplicates allowed):
//
//   SimdIntersects       block-compare for balanced sizes (tiers 1 and 2;
//                        MergeIntersects at tier 0): load one W-lane
//                        block per side (W = 8 AVX2 / 4 SSE2), test all
//                        W x W pairs with W compares over lane rotations,
//                        then advance the block whose max is smaller —
//                        the vector analogue of the two-pointer merge,
//                        W elements per branchless step.
//   SimdGallopIntersects the skewed-size probe, compiled at tier 2 only:
//                        the scalar exponential probe narrows to a window,
//                        a branchless 8-lane lower-bound (biased-signed
//                        compares + movemask popcount) finishes it.
//
// Correctness of the advance rule: all pairs of the two current blocks are
// compared before advancing, and when block A advances its elements are all
// <= max(B block); any later B element is >= that max, and an equal pair
// (max(A) == max(B)) would already have answered true. So no match can be
// skipped. Answers are bit-identical to the scalar kernels by construction
// (tests/util/simd_test.cc fuzzes the agreement).

#ifndef REACH_UTIL_SIMD_H_
#define REACH_UTIL_SIMD_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#if defined(__AVX2__)
#include <immintrin.h>
#define REACH_SIMD_TIER 2
#elif defined(__SSE2__)
#include <emmintrin.h>
#define REACH_SIMD_TIER 1
#else
#define REACH_SIMD_TIER 0
#endif

namespace reach {

/// Instruction tier this translation unit was compiled for:
/// 2 = AVX2 (8-lane), 1 = SSE2 (4-lane), 0 = scalar fallback only.
inline constexpr int kSimdTier = REACH_SIMD_TIER;

/// Human-readable tier name, reported by benchmarks and asserted by the CI
/// build-matrix legs (the -march=x86-64-v3 leg fails if AVX2 compiled out).
inline constexpr const char* SimdKernelName() {
  return kSimdTier == 2 ? "avx2" : kSimdTier == 1 ? "sse2" : "scalar";
}

/// Two-pointer merge scan: O(|a| + |b|). The scalar reference the vector
/// kernels are tested against, the block kernel's tail, and the balanced
/// kernel at tier 0. Exposed (rather than folded into SortedIntersects) so
/// the micro benchmarks can measure each kernel alone.
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

namespace simd_internal {

#if REACH_SIMD_TIER >= 2

inline constexpr size_t kLanes = 8;

/// True if any of the 8x8 element pairs of two 8-lane blocks are equal.
inline bool BlockIntersects(const uint32_t* a, const uint32_t* b) {
  const __m256i va =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
  __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  // Rotating b one lane per step visits all 8 alignments of the 8x8 grid.
  const __m256i rotate = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  __m256i eq = _mm256_cmpeq_epi32(va, vb);
  for (int i = 0; i < 7; ++i) {
    vb = _mm256_permutevar8x32_epi32(vb, rotate);
    eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(va, vb));
  }
  return _mm256_movemask_epi8(eq) != 0;
}

/// First element of sorted [p, end) that is >= x, vectorized: unsigned
/// compares via the signed-bias trick; in a sorted block the lanes < x are
/// a prefix, so popcount(movemask) is the offset of the first >= lane.
inline const uint32_t* VectorLowerBound(const uint32_t* p,
                                        const uint32_t* end, uint32_t x) {
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i vx = _mm256_xor_si256(
      _mm256_set1_epi32(static_cast<int>(x)), bias);
  while (end - p >= static_cast<ptrdiff_t>(kLanes)) {
    const __m256i v = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)), bias);
    const unsigned lt = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(vx, v))));
    if (lt != 0xFFu) return p + std::popcount(lt);
    p += kLanes;
  }
  while (p != end && *p < x) ++p;
  return p;
}

#elif REACH_SIMD_TIER == 1

inline constexpr size_t kLanes = 4;

/// True if any of the 4x4 element pairs of two 4-lane blocks are equal.
inline bool BlockIntersects(const uint32_t* a, const uint32_t* b) {
  const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
  __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
  __m128i eq = _mm_cmpeq_epi32(va, vb);
  vb = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));  // Rotate one lane.
  eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, vb));
  vb = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
  eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, vb));
  vb = _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1));
  eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, vb));
  return _mm_movemask_epi8(eq) != 0;
}

#endif  // REACH_SIMD_TIER

}  // namespace simd_internal

/// Block-compare intersection test for balanced sorted ranges. At tier 0
/// this IS the scalar merge — callers may use it unconditionally.
inline bool SimdIntersects(std::span<const uint32_t> a,
                           std::span<const uint32_t> b) {
#if REACH_SIMD_TIER > 0
  constexpr size_t W = simd_internal::kLanes;
  const uint32_t* pa = a.data();
  const uint32_t* const ea = pa + a.size();
  const uint32_t* pb = b.data();
  const uint32_t* const eb = pb + b.size();
  while (static_cast<size_t>(ea - pa) >= W &&
         static_cast<size_t>(eb - pb) >= W) {
    if (simd_internal::BlockIntersects(pa, pb)) return true;
    const uint32_t amax = pa[W - 1];
    const uint32_t bmax = pb[W - 1];
    if (amax <= bmax) pa += W;
    if (bmax <= amax) pb += W;
  }
  return MergeIntersects({pa, ea}, {pb, eb});
#else
  return MergeIntersects(a, b);
#endif
}

#if REACH_SIMD_TIER >= 2

/// Below this window size the vectorized gallop probe stops bisecting and
/// scans the rest with VectorLowerBound (a few branchless compares beat the
/// final log2(window) branchy bisection steps).
inline constexpr size_t kSimdProbeWindow = 64;

/// Galloping intersection with a vectorized probe, for skewed sizes: the
/// exponential probe and coarse bisection are scalar (they touch one cache
/// line per step), the final window is resolved by VectorLowerBound.
inline bool SimdGallopIntersects(std::span<const uint32_t> small,
                                 std::span<const uint32_t> large) {
  const uint32_t* lo = large.data();
  const uint32_t* const end = lo + large.size();
  for (const uint32_t x : small) {
    const size_t remaining = static_cast<size_t>(end - lo);
    if (remaining == 0) return false;
    size_t step = 1;
    while (step < remaining && lo[step - 1] < x) step <<= 1;
    const uint32_t* hi = lo + (step < remaining ? step : remaining);
    const uint32_t* base = lo + step / 2;
    while (static_cast<size_t>(hi - base) > kSimdProbeWindow) {
      const uint32_t* mid = base + static_cast<size_t>(hi - base) / 2;
      if (*mid < x) {
        base = mid + 1;
      } else {
        hi = mid;
      }
    }
    lo = simd_internal::VectorLowerBound(base, hi, x);
    if (lo == end) return false;  // x and everything after it are too big.
    if (*lo == x) return true;
  }
  return false;
}

#endif  // REACH_SIMD_TIER >= 2

}  // namespace reach

#endif  // REACH_UTIL_SIMD_H_
