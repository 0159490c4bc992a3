#include "util/bitset.h"

#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace reach {
namespace {

TEST(BitsetTest, SetTestReset) {
  Bitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_FALSE(b.Test(0));
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
}

TEST(BitsetTest, CountAndClear) {
  Bitset b(200);
  EXPECT_EQ(b.Count(), 0u);
  for (size_t i = 0; i < 200; i += 3) b.Set(i);
  EXPECT_EQ(b.Count(), 67u);
  b.Clear();
  EXPECT_EQ(b.Count(), 0u);
}

TEST(BitsetTest, UnionSubtract) {
  Bitset a(100);
  Bitset b(100);
  a.Set(1);
  a.Set(50);
  b.Set(50);
  b.Set(99);
  Bitset u = a;
  u.UnionWith(b);
  EXPECT_TRUE(u.Test(1));
  EXPECT_TRUE(u.Test(50));
  EXPECT_TRUE(u.Test(99));
  EXPECT_EQ(u.Count(), 3u);

  Bitset d = a;
  d.SubtractWith(b);
  EXPECT_EQ(d.Count(), 1u);
  EXPECT_TRUE(d.Test(1));
}

TEST(BitsetTest, UnionCountNewReportsOnlyFreshBits) {
  Bitset a(128);
  Bitset b(128);
  a.Set(3);
  b.Set(3);
  b.Set(77);
  b.Set(127);
  EXPECT_EQ(a.UnionCountNew(b), 2u);
  EXPECT_EQ(a.Count(), 3u);
  EXPECT_EQ(a.UnionCountNew(b), 0u);
}

TEST(BitsetTest, Intersects) {
  Bitset a(64);
  Bitset b(64);
  a.Set(10);
  b.Set(11);
  EXPECT_FALSE(a.Intersects(b));
  b.Set(10);
  EXPECT_TRUE(a.Intersects(b));
}

TEST(BitsetTest, AppendSetBits) {
  Bitset b(150);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(149);
  std::vector<uint32_t> out;
  b.AppendSetBits(&out);
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 63, 64, 149}));
}

TEST(BitsetTest, RandomizedAgainstReferenceVector) {
  Rng rng(99);
  Bitset b(777);
  std::vector<bool> ref(777, false);
  for (int op = 0; op < 5000; ++op) {
    const size_t i = rng.Uniform(777);
    if (rng.Bernoulli(0.5)) {
      b.Set(i);
      ref[i] = true;
    } else {
      b.Reset(i);
      ref[i] = false;
    }
  }
  size_t ref_count = 0;
  for (size_t i = 0; i < 777; ++i) {
    EXPECT_EQ(b.Test(i), ref[i]) << "bit " << i;
    ref_count += ref[i];
  }
  EXPECT_EQ(b.Count(), ref_count);
}

TEST(BitsetTest, EqualityAndMemory) {
  Bitset a(70);
  Bitset b(70);
  EXPECT_EQ(a, b);
  a.Set(69);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.MemoryBytes(), 2 * sizeof(uint64_t));
}

}  // namespace
}  // namespace reach
