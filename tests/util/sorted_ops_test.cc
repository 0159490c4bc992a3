#include "util/sorted_ops.h"

#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace reach {
namespace {

// Brace literals do not convert to std::span; route them through a vector.
std::vector<uint32_t> V(std::initializer_list<uint32_t> xs) { return xs; }

TEST(SortedOpsTest, IntersectsBasics) {
  EXPECT_FALSE(SortedIntersects(V({}), V({})));
  EXPECT_FALSE(SortedIntersects(V({1, 3, 5}), V({})));
  EXPECT_FALSE(SortedIntersects(V({1, 3, 5}), V({2, 4, 6})));
  EXPECT_TRUE(SortedIntersects(V({1, 3, 5}), V({5})));
  EXPECT_TRUE(SortedIntersects(V({5}), V({1, 3, 5})));
  EXPECT_TRUE(SortedIntersects(V({1, 2}), V({0, 2, 9})));
}

TEST(SortedOpsTest, RangeOverlapPretest) {
  EXPECT_FALSE(SortedRangesOverlap(V({}), V({1})));
  EXPECT_FALSE(SortedRangesOverlap(V({1}), V({})));
  // Disjoint windows, either order.
  EXPECT_FALSE(SortedRangesOverlap(V({1, 2, 3}), V({4, 9})));
  EXPECT_FALSE(SortedRangesOverlap(V({4, 9}), V({1, 2, 3})));
  // Touching at the boundary overlaps.
  EXPECT_TRUE(SortedRangesOverlap(V({1, 2, 3}), V({3, 9})));
  // Overlapping windows need not share an element — only the scan decides.
  EXPECT_TRUE(SortedRangesOverlap(V({1, 5}), V({2, 9})));
  EXPECT_FALSE(SortedIntersects(V({1, 5}), V({2, 9})));
}

TEST(SortedOpsTest, GallopFindsAndRejects) {
  std::vector<uint32_t> large;
  for (uint32_t i = 0; i < 4096; ++i) large.push_back(2 * i);  // Evens.
  EXPECT_TRUE(GallopIntersects(V({4000}), large));
  EXPECT_FALSE(GallopIntersects(V({4001}), large));
  EXPECT_TRUE(GallopIntersects(V({1, 3, 8190}), large));   // Last element.
  EXPECT_TRUE(GallopIntersects(V({0}), large));            // First element.
  EXPECT_FALSE(GallopIntersects(V({1, 3, 5, 9999}), large));
  // Small elements past the end of large must terminate, not scan.
  EXPECT_FALSE(GallopIntersects(V({100000, 100002}), large));
}

TEST(SortedOpsTest, AdaptiveMatchesMergeOnSkewedSizes) {
  // Exercise both adaptive branches (gallop for ratio > kGallopRatio,
  // merge otherwise) against the plain merge kernel.
  Rng rng(77);
  for (int round = 0; round < 300; ++round) {
    std::set<uint32_t> sa;
    std::set<uint32_t> sb;
    const size_t na = 1 + rng.Uniform(4);
    const size_t nb = 1 + rng.Uniform(2000);
    for (size_t i = 0; i < na; ++i) sa.insert(rng.Uniform(5000));
    for (size_t i = 0; i < nb; ++i) sb.insert(rng.Uniform(5000));
    std::vector<uint32_t> va(sa.begin(), sa.end());
    std::vector<uint32_t> vb(sb.begin(), sb.end());
    const bool expected = MergeIntersects(va, vb);
    EXPECT_EQ(SortedIntersects(va, vb), expected);
    EXPECT_EQ(SortedIntersects(vb, va), expected);
    EXPECT_EQ(GallopIntersects(va, vb), expected);
  }
}

TEST(SortedOpsTest, SortUnique) {
  std::vector<uint32_t> v{5, 1, 5, 3, 1};
  SortUnique(&v);
  EXPECT_EQ(v, (std::vector<uint32_t>{1, 3, 5}));
}

TEST(SortedOpsTest, RandomizedIntersectsAgainstStdSet) {
  Rng rng(1001);
  for (int round = 0; round < 200; ++round) {
    std::set<uint32_t> sa;
    std::set<uint32_t> sb;
    const size_t na = rng.Uniform(20);
    const size_t nb = rng.Uniform(20);
    for (size_t i = 0; i < na; ++i) sa.insert(rng.Uniform(40));
    for (size_t i = 0; i < nb; ++i) sb.insert(rng.Uniform(40));
    std::vector<uint32_t> va(sa.begin(), sa.end());
    std::vector<uint32_t> vb(sb.begin(), sb.end());
    bool expected = false;
    for (uint32_t x : sa) expected |= sb.count(x) > 0;
    EXPECT_EQ(SortedIntersects(va, vb), expected);
    EXPECT_EQ(MergeIntersects(va, vb), expected);
    EXPECT_EQ(GallopIntersects(va, vb), expected);
    EXPECT_EQ(GallopIntersects(vb, va), expected);
  }
}

// The DL build's row_keys_read counter: every key the scan compared,
// the one it stopped at included, and none after a window reject.
TEST(SortedOpsTest, MarkedIntersectsCountsTheKeysItRead) {
  std::vector<uint32_t> marks(64, 0);
  const std::vector<uint32_t> marked = V({3, 9, 17, 40});
  for (const uint32_t key : marked) marks[key] = 1;
  auto keys_read = [&](const std::vector<uint32_t>& row, bool hit) {
    uint64_t read = 0;
    EXPECT_EQ(MarkedIntersects(row, marked, marks.data(), 1, &read), hit);
    return read;
  };
  EXPECT_EQ(keys_read(V({41, 50, 63}), false), 0u);  // Window reject.
  EXPECT_EQ(keys_read(V({3, 5, 6}), true), 1u);
  EXPECT_EQ(keys_read(V({0, 2, 40}), true), 3u);
  EXPECT_EQ(keys_read(V({0, 1, 5}), false), 3u);       // Ran off the row.
  EXPECT_EQ(keys_read(V({0, 2, 41, 50}), false), 3u);  // Stopped past 40.
}

// MarkedIntersects against SortedIntersects. One marks array serves every
// round, each under a fresh epoch, so the marks of the older rounds stay
// behind as stale values that must never count as hits.
TEST(SortedOpsTest, MarkedIntersectsMatchesSortedIntersects) {
  constexpr uint32_t kKeys = 64;
  std::vector<uint32_t> marks(kKeys, 0);
  uint32_t epoch = 0;
  auto check = [&](const std::vector<uint32_t>& row,
                   const std::vector<uint32_t>& marked) {
    ++epoch;
    for (const uint32_t key : marked) marks[key] = epoch;
    uint64_t keys_read = 0;
    EXPECT_EQ(MarkedIntersects(row, marked, marks.data(), epoch, &keys_read),
              SortedIntersects(row, marked))
        << "row of " << row.size() << ", marked " << marked.size();
  };
  const std::vector<uint32_t> some = V({3, 9, 17, 40});
  check(V({}), V({}));
  check(V({}), some);
  check(some, V({}));
  check(V({41, 50, 63}), some);  // Disjoint windows, either order.
  check(V({0, 1, 2}), some);
  check(V({3, 5, 6}), some);     // Hit at the row's first key.
  check(V({0, 2, 40}), some);    // Hit at the row's last key.
  check(V({1, 2, 3}), some);     // Hit at the marked side's first key.
  check(V({10, 20, 40}), some);  // Hit at the marked side's last key.
  // 9 and 17 were marked in earlier epochs and the windows overlap: a
  // stale mark is not a hit.
  ++epoch;
  for (const uint32_t key : V({10, 20, 30})) marks[key] = epoch;
  uint64_t keys_read = 0;
  EXPECT_FALSE(MarkedIntersects(V({9, 17, 25}), V({10, 20, 30}),
                                marks.data(), epoch, &keys_read));

  Rng rng(2601);
  for (int round = 0; round < 2000; ++round) {
    std::set<uint32_t> row_set;
    std::set<uint32_t> marked_set;
    const size_t row_size = rng.Uniform(12);
    const size_t marked_size = rng.Uniform(12);
    for (size_t i = 0; i < row_size; ++i) row_set.insert(rng.Uniform(kKeys));
    for (size_t i = 0; i < marked_size; ++i) {
      marked_set.insert(rng.Uniform(kKeys));
    }
    check({row_set.begin(), row_set.end()},
          {marked_set.begin(), marked_set.end()});
  }
}

}  // namespace
}  // namespace reach
