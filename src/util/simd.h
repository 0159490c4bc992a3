// The SIMD kernel for the sorted-uint32 intersection hot path, the
// compile-time feature detection that gates it, and the scalar merge it
// falls back to. The adaptive dispatch lives in util/sorted_ops.h.
//
// Compile-time tiers: kSimdTier is 1 when the translation unit is built
// with SSE2 — every x86-64 build, whatever its -march, since SSE2 is part
// of the x86-64 baseline — and 0 elsewhere. The tier is the only switch:
// there is no runtime toggle, and tests check the kernel against
// MergeIntersects directly.
//
// SimdIntersects is a block compare for balanced sizes (MergeIntersects at
// tier 0): load one 4-lane block per side, test all 4 x 4 pairs with 4
// compares over lane rotations, then advance the block whose max is
// smaller — the vector analogue of the two-pointer merge, 4 elements per
// branchless step. It requires sorted input; duplicates are allowed.
//
// Correctness of the advance rule: all pairs of the two current blocks are
// compared before advancing, and when block A advances its elements are all
// <= max(B block); any later B element is >= that max, and an equal pair
// (max(A) == max(B)) would already have answered true. So no match can be
// skipped. Answers are bit-identical to the scalar merge by construction
// (tests/util/simd_test.cc fuzzes the agreement).

#ifndef REACH_UTIL_SIMD_H_
#define REACH_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <span>

#if defined(__SSE2__)
#include <emmintrin.h>
#define REACH_SIMD_TIER 1
#else
#define REACH_SIMD_TIER 0
#endif

namespace reach {

/// Instruction tier this translation unit was compiled for:
/// 1 = SSE2 (4-lane), 0 = scalar fallback only.
inline constexpr int kSimdTier = REACH_SIMD_TIER;

#if defined(__x86_64__)
static_assert(kSimdTier == 1,
              "SSE2 is part of the x86-64 baseline; the SSE2 tier must "
              "compile on every x86-64 build");
#endif

/// Human-readable tier name, reported by the micro benchmarks.
inline constexpr const char* SimdKernelName() {
  return kSimdTier == 1 ? "sse2" : "scalar";
}

/// Two-pointer merge scan: O(|a| + |b|). The scalar reference the block
/// kernel is tested against, its tail, and the balanced kernel at tier 0.
/// Exposed (rather than folded into SortedIntersects) so the micro
/// benchmarks can measure each kernel alone.
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

#if REACH_SIMD_TIER == 1

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

}  // namespace reach

#endif  // REACH_UTIL_SIMD_H_
