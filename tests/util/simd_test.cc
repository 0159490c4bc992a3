// Differential fuzz of the SIMD intersection kernel (util/simd.h) against
// the scalar references (NaiveIntersects below, MergeIntersects): for every
// generated pair of sorted ranges, the block kernel, the scalar gallop and
// the adaptive dispatcher must agree — empty and length-1 ranges,
// all-equal comparison windows, near-overflow uint32_t keys.
//
// On x86-64 the suite runs the SSE2 block kernel: util/simd.h fails to
// compile an x86-64 build without it, so no build can silently test the
// scalar fallback in its place.

#include <algorithm>
#include <vector>

#include "gtest/gtest.h"

#include "util/rng.h"
#include "util/simd.h"
#include "util/sorted_ops.h"

namespace reach {
namespace {

std::vector<uint32_t> SortedUniqueVector(size_t n, uint32_t lo, uint32_t hi,
                                         Rng* rng) {
  std::vector<uint32_t> v;
  v.reserve(n);
  const uint64_t width = static_cast<uint64_t>(hi) - lo + 1;
  for (size_t i = 0; i < n; ++i) {
    v.push_back(lo + static_cast<uint32_t>(rng->Uniform(width)));
  }
  SortUnique(&v);
  return v;
}

/// The ground truth nobody optimizes: linear scan membership.
bool NaiveIntersects(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b) {
  for (uint32_t x : a) {
    if (std::find(b.begin(), b.end(), x) != b.end()) return true;
  }
  return false;
}

void ExpectAllKernelsAgree(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b,
                           const char* label) {
  const bool expected = NaiveIntersects(a, b);
  EXPECT_EQ(MergeIntersects(a, b), expected) << label;
  EXPECT_EQ(SimdIntersects(a, b), expected) << label;
  EXPECT_EQ(SimdIntersects(b, a), expected) << label;
  if (!a.empty() || !b.empty()) {
    // The gallop kernel takes (small, large) in either size order.
    EXPECT_EQ(GallopIntersects(a, b), expected) << label;
    EXPECT_EQ(GallopIntersects(b, a), expected) << label;
  }
  // The adaptive dispatcher, both argument orders.
  EXPECT_EQ(SortedIntersects(a, b), expected) << label;
  EXPECT_EQ(SortedIntersects(b, a), expected) << label;
}

TEST(SimdKernelTest, EdgeShapes) {
  const std::vector<uint32_t> empty;
  const std::vector<uint32_t> one = {7};
  const std::vector<uint32_t> other = {9};
  const std::vector<uint32_t> long_miss = {1, 3, 5, 8, 11, 13, 15, 17,
                                           19, 21, 23, 25, 27, 29, 31, 33};
  const std::vector<uint32_t> long_hit = {2, 4, 6, 7, 10, 12, 14, 16,
                                          18, 20, 22, 24, 26, 28, 30, 32};
  ExpectAllKernelsAgree(empty, empty, "empty/empty");
  ExpectAllKernelsAgree(empty, one, "empty/one");
  ExpectAllKernelsAgree(one, one, "one/one equal");
  ExpectAllKernelsAgree(one, other, "one/one disjoint");
  ExpectAllKernelsAgree(one, long_hit, "one hits long");
  ExpectAllKernelsAgree(one, long_miss, "one misses long");
  ExpectAllKernelsAgree(long_miss, long_hit, "interleaved");
}

TEST(SimdKernelTest, AllEqualWindowAndSeams) {
  // Identical arrays: every block compare window is all-equal.
  std::vector<uint32_t> v;
  for (uint32_t i = 0; i < 64; ++i) v.push_back(i * 3);
  ExpectAllKernelsAgree(v, v, "identical arrays");
  // Single shared element exactly at a block seam (index 3/4 and 7/8).
  for (const size_t shared_at : {0u, 3u, 4u, 7u, 8u, 15u, 16u, 63u}) {
    std::vector<uint32_t> a;
    std::vector<uint32_t> b;
    for (uint32_t i = 0; i < 64; ++i) {
      a.push_back(2 * i);          // Evens.
      b.push_back(2 * i + 1);      // Odds: disjoint...
    }
    b[shared_at] = a[shared_at];   // ...except one aligned element.
    std::sort(b.begin(), b.end());
    ExpectAllKernelsAgree(a, b, "single shared element");
  }
}

TEST(SimdKernelTest, NearOverflowKeys) {
  // Keys around INT32_MAX and UINT32_MAX: a kernel that ordered them with a
  // signed compare anywhere (a block advance, a gallop probe) would skip
  // matches here.
  const uint32_t kMax = 0xFFFFFFFFu;
  const std::vector<uint32_t> high = {0x7FFFFFFEu, 0x7FFFFFFFu, 0x80000000u,
                                      0x80000001u, kMax - 1, kMax};
  const std::vector<uint32_t> low = {0, 1, 2, 0x7FFFFFFDu};
  const std::vector<uint32_t> hit = {5, 0x80000000u};
  ExpectAllKernelsAgree(high, low, "straddles sign bit, disjoint");
  ExpectAllKernelsAgree(high, hit, "hit at 2^31");
  std::vector<uint32_t> top_window;
  for (uint32_t i = 0; i < 48; ++i) top_window.push_back(kMax - 2 * i);
  std::sort(top_window.begin(), top_window.end());
  ExpectAllKernelsAgree(top_window, high, "near-overflow window");
}

TEST(SimdKernelTest, RandomizedAgainstScalar) {
  Rng rng(20260808);
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t la = rng.Uniform(96);
    const size_t lb = 1 + rng.Uniform(512);
    // Narrow universes force collisions; wide ones exercise misses.
    const uint32_t span = iter % 3 == 0  ? 128
                          : iter % 3 == 1 ? 4096
                                          : 1u << 30;
    const uint32_t base =
        iter % 5 == 0 ? 0xFFFFFFFFu - span : rng.Uniform(1u << 20);
    auto a = SortedUniqueVector(la, base, base + span, &rng);
    auto b = SortedUniqueVector(lb, base, base + span, &rng);
    const bool expected = MergeIntersects(a, b);
    ASSERT_EQ(SimdIntersects(a, b), expected) << "iter " << iter;
    ASSERT_EQ(SimdIntersects(b, a), expected) << "iter " << iter;
    ASSERT_EQ(SortedIntersects(a, b), expected) << "iter " << iter;
    ASSERT_EQ(SortedIntersects(b, a), expected) << "iter " << iter;
  }
}

}  // namespace
}  // namespace reach
