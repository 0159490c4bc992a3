#include "core/label_store.h"

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/distribution_labeling.h"
#include "graph/digraph.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/mapped_blob.h"
#include "util/rng.h"

namespace reach {
namespace {

std::vector<uint32_t> ToVec(std::span<const uint32_t> s) {
  return {s.begin(), s.end()};
}

using testing_util::LabelBytes;

/// The build-phase rows behind most tests:
///   Lout(0) = {1}, Lout(2) = {0, 2}; Lin(1) = {1}, Lin(2) = {0}.
LabelBuilder SampleRows() {
  LabelBuilder l(3);
  l.InsertOut(0, 1);
  l.InsertOut(2, 2);
  l.InsertOut(2, 0);
  l.InsertIn(1, 1);
  l.InsertIn(2, 0);
  return l;
}

LabelStore SampleStore() { return SampleRows().Seal(); }

/// Loads `bytes` through the one load path, over a heap copy of them.
StatusOr<LabelStore> Deserialize(const std::string& bytes) {
  return LabelStore::FromMapped(
      MappedRegion{testing_util::OwnedBlob(bytes), 0});
}

void Poke32(std::string* blob, size_t offset, uint32_t value) {
  ASSERT_LE(offset + 4, blob->size());
  std::memcpy(blob->data() + offset, &value, sizeof(value));
}

void Poke64(std::string* blob, size_t offset, uint64_t value) {
  ASSERT_LE(offset + 8, blob->size());
  std::memcpy(blob->data() + offset, &value, sizeof(value));
}

/// The build phase's answer: the same intersection over the rows.
bool RowsQuery(const LabelBuilder& rows, Vertex u, Vertex v) {
  return SortedIntersects(rows.Out(u), rows.In(v));
}

/// True iff `sealed` holds exactly the rows of `rows`.
bool SameRows(const LabelStore& sealed, const LabelBuilder& rows) {
  if (sealed.num_vertices() != rows.num_vertices()) return false;
  for (Vertex v = 0; v < rows.num_vertices(); ++v) {
    if (ToVec(sealed.Out(v)) != ToVec(rows.Out(v)) ||
        ToVec(sealed.In(v)) != ToVec(rows.In(v))) {
      return false;
    }
  }
  return true;
}

TEST(LabelStoreTest, EmptyLabelsDoNotIntersect) {
  const LabelStore l = LabelBuilder(3).Seal();
  EXPECT_FALSE(l.Query(0, 1));
  EXPECT_FALSE(l.Query(2, 2));
}

TEST(LabelStoreTest, QueryFindsCommonHop) {
  LabelBuilder rows(4);
  rows.InsertOut(0, 7);
  rows.InsertOut(0, 9);
  rows.InsertIn(1, 9);
  const LabelStore l = std::move(rows).Seal();
  EXPECT_TRUE(l.Query(0, 1));
  EXPECT_FALSE(l.Query(1, 0));
}

TEST(LabelStoreTest, InsertKeepsSorted) {
  LabelBuilder l(1);
  l.InsertOut(0, 9);
  l.InsertOut(0, 3);
  l.InsertOut(0, 7);
  l.InsertOut(0, 3);  // Duplicate ignored.
  EXPECT_EQ(ToVec(l.Out(0)), (std::vector<uint32_t>{3, 7, 9}));
}

TEST(LabelStoreTest, AppendPattern) {
  LabelBuilder l(2);
  l.InsertOut(0, 1);
  l.InsertOut(0, 5);
  l.InsertIn(1, 5);
  EXPECT_EQ(ToVec(l.Out(0)), (std::vector<uint32_t>{1, 5}));
  EXPECT_TRUE(std::move(l).Seal().Query(0, 1));
}

TEST(LabelStoreTest, SizeAccounting) {
  LabelBuilder l(3);
  l.InsertOut(0, 1);
  l.InsertOut(1, 2);
  l.InsertIn(2, 3);
  l.InsertIn(2, 4);
  EXPECT_EQ(l.TotalEntries(), 4u);
  EXPECT_EQ(std::move(l).Seal().TotalEntries(), 4u);
  EXPECT_EQ(LabelStore().TotalEntries(), 0u);
}

TEST(LabelStoreTest, SealPreservesLabelsAndAnswers) {
  const LabelBuilder rows = SampleRows();
  const LabelStore sealed = SampleStore();
  EXPECT_TRUE(SameRows(sealed, rows));
  for (Vertex v = 0; v < 3; ++v) {
    for (Vertex w = 0; w < 3; ++w) {
      EXPECT_EQ(sealed.Query(v, w), RowsQuery(rows, v, w)) << v << "->" << w;
    }
  }
}

TEST(LabelStoreTest, SealedMemoryBytesIsExactCsrFootprint) {
  // The sealed store is exactly its CSR arrays: one offsets entry per
  // vertex plus one, per side, and one key per stored label entry — no
  // per-vector headers, no capacity slack (the build-phase estimate had
  // understated the paper's index-size metric against allocator reality).
  const LabelStore l = SampleStore();
  const size_t expected =
      2 * (l.num_vertices() + 1) * sizeof(uint64_t) +
      static_cast<size_t>(l.TotalEntries()) * sizeof(uint32_t);
  EXPECT_EQ(l.MemoryBytes(), expected);
  EXPECT_EQ(LabelStore().MemoryBytes(), 0u);
}

// Write is one write of the blob: a sealed store writes the bytes that,
// loaded back, write themselves again. A store without a blob has none.
TEST(LabelStoreTest, SealedWriteMatchesRoundTrippedBytes) {
  const std::string bytes = LabelBytes(SampleStore());
  auto back = Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(LabelBytes(*back), bytes);
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(LabelStore().Write(out).IsInvalidArgument());
  EXPECT_TRUE(out.str().empty());
}

TEST(LabelStoreTest, SerializationRoundTrip) {
  LabelBuilder rows(5);
  rows.InsertOut(0, 1);
  rows.InsertOut(0, 2);
  rows.InsertIn(3, 1);
  rows.InsertIn(4, 4);
  const LabelStore l = testing_util::CopyOf(rows).Seal();
  auto back = Deserialize(LabelBytes(l));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == l);
  EXPECT_TRUE(SameRows(*back, rows));
  EXPECT_EQ(back->TotalEntries(), 4u);
  // A reloaded store reports the same exact footprint as a sealed one.
  EXPECT_EQ(back->MemoryBytes(), l.MemoryBytes());
}

TEST(LabelStoreTest, RandomizedSealAndRoundTripAgree) {
  Rng rng(404);
  for (int round = 0; round < 20; ++round) {
    const size_t n = 1 + rng.Uniform(40);
    LabelBuilder rows(n);
    const size_t inserts = rng.Uniform(120);
    for (size_t i = 0; i < inserts; ++i) {
      const Vertex v = static_cast<Vertex>(rng.Uniform(n));
      const uint32_t key = static_cast<uint32_t>(rng.Uniform(n));
      if (rng.Bernoulli(0.5)) {
        rows.InsertOut(v, key);
      } else {
        rows.InsertIn(v, key);
      }
    }
    const LabelStore sealed = testing_util::CopyOf(rows).Seal();
    EXPECT_TRUE(SameRows(sealed, rows));
    EXPECT_TRUE(sealed.Validate().ok());
    auto back = Deserialize(LabelBytes(sealed));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(*back == sealed);
    EXPECT_TRUE(back->Validate().ok());
    for (int q = 0; q < 50; ++q) {
      const Vertex u = static_cast<Vertex>(rng.Uniform(n));
      const Vertex v = static_cast<Vertex>(rng.Uniform(n));
      EXPECT_EQ(RowsQuery(rows, u, v), sealed.Query(u, v));
      EXPECT_EQ(RowsQuery(rows, u, v), back->Query(u, v));
    }
  }
}

// A parallel seal copies blocks of rows from precomputed offsets; the blob
// must not depend on how many workers copied. 20,000 rows span several
// blocks, and the sides get odd and even totals (padding on one side).
TEST(LabelStoreTest, SealBlobIsIdenticalAtAnyThreadCount) {
  constexpr size_t kRows = 20000;
  Rng rng(2602);
  LabelBuilder rows(kRows);
  for (size_t i = 0; i < 3 * kRows + 1; ++i) {
    rows.InsertOut(static_cast<Vertex>(rng.Uniform(kRows)),
                   static_cast<uint32_t>(rng.Uniform(kRows)));
  }
  for (size_t i = 0; i < 2 * kRows; ++i) {
    rows.InsertIn(static_cast<Vertex>(rng.Uniform(kRows)),
                  static_cast<uint32_t>(rng.Uniform(kRows)));
  }
  const LabelStore expected = testing_util::CopyOf(rows).Seal(1);
  EXPECT_TRUE(SameRows(expected, rows));
  for (const int threads : {3, 8}) {
    const LabelStore sealed = testing_util::CopyOf(rows).Seal(threads);
    EXPECT_EQ(LabelBytes(sealed), LabelBytes(expected))
        << threads << " threads";
  }
}

// --- LabelBuilder's storage: each row partition keeps its rows in arenas
// of its own and hands the blocks that rows outgrow to its next growing
// rows. The tests below compare every row with a plain model, so a block
// handed to two rows at once shows as a wrong label, and bound
// StorageBytes(), so blocks that are never handed out again show as
// growth.

// DL in topological order on a star of leaves -> hub: every leaf is a hop
// ahead of the hub, so Lin(hub) takes all 300,001 keys and grows through
// every size class up to 2^19 keys, a block larger than the largest chunk
// (it gets a chunk of its own size), while the leaves' one-key rows take
// the blocks it leaves behind.
TEST(LabelBuilderTest, HubRowOutgrowsEveryBlockSize) {
  constexpr Vertex kLeaves = 300000;
  constexpr Vertex kHub = kLeaves;
  std::vector<Edge> edges;
  for (Vertex leaf = 0; leaf < kLeaves; ++leaf) edges.push_back({leaf, kHub});
  const Digraph star = Digraph::FromEdges(kLeaves + 1, std::move(edges));
  DistributionOptions options;
  options.order = DistributionOrder::kTopological;
  std::string reference;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    DistributionLabelingOracle dl(options);
    BuildOptions build;
    build.threads = threads;
    ASSERT_TRUE(dl.Build(star, build).ok());
    const LabelStore& labels = dl.labeling();
    ASSERT_EQ(labels.In(kHub).size(), kLeaves + 1u);
    for (uint32_t key = 0; key <= kLeaves; ++key) {
      ASSERT_EQ(labels.In(kHub)[key], key);
    }
    ASSERT_EQ(labels.TotalEntries(), 3u * kLeaves + 2);
    for (Vertex leaf = 0; leaf < kLeaves; ++leaf) {
      ASSERT_EQ(labels.Out(leaf).size(), 1u) << leaf;
      ASSERT_EQ(ToVec(labels.In(leaf)), ToVec(labels.Out(leaf))) << leaf;
    }
    EXPECT_TRUE(dl.Reachable(kLeaves - 1, kHub));
    EXPECT_FALSE(dl.Reachable(kHub, 0));
    // Row headers, a 4-key block per one-key row, and the hub's blocks of
    // 4, 8, ..., 2^19 keys, with room for the chunk headers.
    EXPECT_LE(dl.build_stats().label_storage_bytes,
              2 * (kLeaves + 1) * 16 + (8 * kLeaves + 2 * 524288) * 4 + 4096);
    if (threads == 1) {
      reference = LabelBytes(labels);
    } else {
      EXPECT_EQ(LabelBytes(labels), reference);
    }
  }
}

// HL's level sweep: whole rows replaced from several workers, one task per
// row partition. Within a partition, rows alternate: an even row takes 16
// keys and then 100, giving its 16-key block back; the odd row after it
// keeps 16 keys in that block.
TEST(LabelBuilderTest, WholeRowReplacementFromSeveralWorkers) {
  constexpr Vertex kRows = 2000;
  constexpr size_t kParts = 4;
  LabelBuilder rows(kRows, kParts);
  std::vector<Vertex> all(kRows);
  for (Vertex v = 0; v < kRows; ++v) all[v] = kRows - 1 - v;
  const auto keys_of = [](Vertex v, uint32_t count) {
    std::vector<uint32_t> keys(count);
    for (uint32_t i = 0; i < count; ++i) keys[i] = v + 3 * i;
    return keys;
  };
  const auto final_size = [](Vertex v) { return v % 2 == 0 ? 100u : 16u; };
  rows.ForEachRowByPart(all, [&](Vertex v, size_t worker) {
    ASSERT_LT(worker, kParts);
    rows.AssignOut(v, keys_of(v, 16));
    rows.AssignIn(v, keys_of(v + 1, 16));
    rows.AssignOut(v, keys_of(v, final_size(v)));
    rows.AssignIn(v, keys_of(v + 1, final_size(v)));
  });
  for (Vertex v = 0; v < kRows; ++v) {
    ASSERT_EQ(ToVec(rows.Out(v)), keys_of(v, final_size(v))) << v;
    ASSERT_EQ(ToVec(rows.In(v)), keys_of(v + 1, final_size(v))) << v;
  }
  // Every row costs its final block alone, plus the chunk headers.
  EXPECT_LE(rows.StorageBytes(),
            2 * kRows * 16 + 2 * (kRows / 2) * (100 + 16) * 4 + 1024);
  // A row larger than an arena's first chunk, in a fresh builder, and a
  // row carved after it.
  LabelBuilder wide(2);
  wide.AssignOut(0, keys_of(0, 30000));
  wide.AssignOut(1, keys_of(1, 30000));
  EXPECT_EQ(ToVec(wide.Out(0)), keys_of(0, 30000));
  EXPECT_EQ(ToVec(wide.Out(1)), keys_of(1, 30000));
  // A shorter row reuses its own block; the blob is the same from any
  // number of copying workers.
  rows.AssignOut(6, keys_of(6, 3));
  EXPECT_EQ(ToVec(rows.Out(6)), keys_of(6, 3));
  const std::string one = LabelBytes(testing_util::CopyOf(rows).Seal(1));
  EXPECT_EQ(LabelBytes(std::move(rows).Seal(4)), one);
}

// 2HOP's inserts: keys in shuffled order, most of them below the row's
// back. In the first half, each row grows key by key through every size
// class up to 64 keys, on the blocks the row before it outgrew; the second
// half's two-key rows then take blocks from the free lists and keep them.
TEST(LabelBuilderTest, InsertsBelowTheBackKeepRowsSorted) {
  constexpr Vertex kRows = 1000;
  constexpr size_t kParts = 3;
  constexpr uint32_t kKeys = 64;
  LabelBuilder rows(kRows, kParts);
  std::vector<Vertex> all(kRows);
  for (Vertex v = 0; v < kRows; ++v) all[v] = v;
  const auto expected_out = [](Vertex v) {
    const uint32_t count = v < kRows / 2 ? kKeys : 2;
    std::vector<uint32_t> keys(count);
    for (uint32_t i = 0; i < count; ++i) keys[i] = 2 * i + v % 2;
    return keys;
  };
  rows.ForEachRowByPart(all, [&](Vertex v, size_t) {
    Rng rng(v);
    std::vector<uint32_t> keys = expected_out(v);
    Shuffle(&keys, &rng);
    for (const uint32_t key : keys) {
      rows.InsertOut(v, key);
      rows.InsertOut(v, key);  // A duplicate is ignored.
    }
    rows.InsertIn(v, 9);
    rows.InsertIn(v, 9);  // A duplicate of the back, too.
    rows.InsertIn(v, v % 9);
  });
  for (Vertex v = 0; v < kRows; ++v) {
    ASSERT_EQ(ToVec(rows.Out(v)), expected_out(v)) << v;
    const std::vector<uint32_t> in =
        v % 9 == 0 ? std::vector<uint32_t>{0, 9}
                   : std::vector<uint32_t>{v % 9, 9};
    ASSERT_EQ(ToVec(rows.In(v)), in) << v;
  }
  // Final blocks (64 or 4 keys a row on the Out side, 4 on the In side)
  // plus one outgrown block of 4, 8, 16 and 32 keys per partition, and the
  // chunk headers.
  EXPECT_LE(rows.StorageBytes(),
            2 * kRows * 16 +
                ((kRows / 2) * (kKeys + 4) + kRows * 4 + kParts * 60) * 4 +
                1024);
}

TEST(LabelBuilderTest, ZeroVerticesSealToAnEmptyStore) {
  LabelBuilder rows(0, 4);
  EXPECT_EQ(rows.num_vertices(), 0u);
  EXPECT_EQ(rows.parts(), 4u);
  EXPECT_EQ(rows.TotalEntries(), 0u);
  EXPECT_EQ(rows.StorageBytes(), 0u);
  rows.ForEachRowByPart({}, [](Vertex, size_t) { FAIL(); });
  const LabelStore sealed = testing_util::CopyOf(rows).Seal(4);
  EXPECT_EQ(sealed.num_vertices(), 0u);
  EXPECT_EQ(sealed.TotalEntries(), 0u);
  auto back = Deserialize(LabelBytes(sealed));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*back == sealed);
  EXPECT_TRUE(back->Validate().ok());
  DistributeLabels(Digraph(), {}, {}, &rows);
  EXPECT_EQ(std::move(rows).Seal().MemoryBytes(), 2 * sizeof(uint64_t));
}

// --- The one load path. The RLSTORE3 reference blob (SampleStore, n = 3,
// Lout(0)={1}, Lout(2)={0,2}, Lin(1)={1}, Lin(2)={0}):
//   [0]   magic            u64
//   [8]   n = 3            u64
//   [16]  total_out = 3    u64
//   [24]  total_in = 2     u64
//   [32]  off_out {0,1,1,3}    u64 x 4 at 32/40/48/56
//   [64]  keys_out {1,0,2}     u32 x 3 at 64/68/72
//   [76]  pad (4 zero bytes — 3 keys round up to 8)
//   [80]  off_in {0,0,1,2}     u64 x 4 at 80/88/96/104
//   [112] keys_in {1,0}        u32 x 2 at 112/116 (no pad: 2 keys = 8 bytes)
// total size 120 bytes.
//
// Every structurally corrupt variant must be rejected by FromMapped from
// size arithmetic alone, before any byte past the mapping could be
// dereferenced (a mapped file's boundary raises SIGBUS, not a graceful
// error). Key values are Validate()'s job (LabelStoreValidateTest).

StatusOr<LabelStore> MapDeserialize(const std::string& bytes,
                                    const std::string& tag) {
  auto blob = testing_util::MapBytes(bytes, "label_store." + tag);
  if (blob == nullptr) {
    return Status::Internal("test fixture failed to map blob");
  }
  return LabelStore::FromMapped(MappedRegion{std::move(blob), 0});
}

TEST(LabelStoreMappedTest, AnswersIdenticalToSealedStore) {
  // One sealed representation behind three backings: Seal's owned blob,
  // a heap read of the written bytes, and an mmap of them.
  const LabelStore sealed = SampleStore();
  const std::string blob = LabelBytes(sealed);
  auto heap = Deserialize(blob);
  auto mapped = MapDeserialize(blob, "equiv");
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->mapped(), MappedBlob::PlatformSupportsMmap());
  EXPECT_FALSE(heap->mapped());
  EXPECT_FALSE(sealed.mapped());
  for (const LabelStore* store : {&*heap, &*mapped}) {
    EXPECT_TRUE(*store == sealed);
    EXPECT_EQ(store->TotalEntries(), sealed.TotalEntries());
    EXPECT_EQ(store->MemoryBytes(), sealed.MemoryBytes());
    EXPECT_EQ(LabelBytes(*store), blob);  // Write is the blob's bytes.
    for (Vertex u = 0; u < 3; ++u) {
      EXPECT_EQ(ToVec(store->Out(u)), ToVec(sealed.Out(u))) << u;
      EXPECT_EQ(ToVec(store->In(u)), ToVec(sealed.In(u))) << u;
      for (Vertex v = 0; v < 3; ++v) {
        EXPECT_EQ(store->Query(u, v), sealed.Query(u, v)) << u << "->" << v;
      }
    }
  }
}

TEST(LabelStoreMappedTest, RetainsBackingAfterCallerDropsBlob) {
  LabelStore store;
  {
    auto blob = testing_util::MapBytes(LabelBytes(SampleStore()),
                                       "label_store.keepalive");
    ASSERT_NE(blob, nullptr);
    auto mapped = LabelStore::FromMapped(MappedRegion{blob, 0});
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    store = std::move(*mapped);
  }
  // The caller's shared_ptr is gone; the store's retained reference must
  // keep the mapping alive (the RELOAD lifetime contract in miniature).
  EXPECT_EQ(store.mapped(), MappedBlob::PlatformSupportsMmap());
  EXPECT_TRUE(store == SampleStore());
  EXPECT_TRUE(store.Query(0, 1));
  // Copies share the blob rather than duplicating the arrays.
  LabelStore copy = store;
  EXPECT_EQ(copy.mapped(), store.mapped());
  EXPECT_EQ(copy.Out(2).data(), store.Out(2).data());
  EXPECT_TRUE(copy == store);
  EXPECT_TRUE(copy.Query(0, 1));
}

TEST(LabelStoreMappedTest, RejectsMisalignedRegionOffset) {
  auto blob = testing_util::MapBytes(LabelBytes(SampleStore()),
                                       "label_store.misaligned");
  ASSERT_NE(blob, nullptr);
  const Status status =
      LabelStore::FromMapped(MappedRegion{blob, 4}).status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("8-byte aligned"), std::string::npos);
}

TEST(LabelStoreMappedTest, RejectsBadMagic) {
  std::string swapped = LabelBytes(SampleStore());
  // Byte-swap the magic: a file written on a foreign-endian machine can
  // never match the local-endian magic, so it dies at the first check.
  for (size_t i = 0; i < 4; ++i) std::swap(swapped[i], swapped[7 - i]);
  std::string flipped = LabelBytes(SampleStore());
  flipped[0] ^= 0x5a;
  const std::string garbage = "not a labeling blob at all, nor a header";
  size_t tag = 0;
  for (const std::string& blob : {swapped, flipped, garbage}) {
    const Status status =
        MapDeserialize(blob, "magic" + std::to_string(tag++)).status();
    EXPECT_TRUE(status.IsCorruption()) << tag;
    EXPECT_NE(status.message().find("magic"), std::string::npos) << tag;
  }
}

TEST(LabelStoreMappedTest, RejectsTruncationAtEverySection) {
  const std::string blob = LabelBytes(SampleStore());
  ASSERT_EQ(blob.size(), 120u);
  // Cuts inside the header, out offsets, out keys, out pad, in offsets and
  // in keys, plus off-by-one at the end. Every rejection must come from
  // arithmetic on the region size, reached without dereferencing past the
  // shortened mapping.
  size_t tag = 0;
  for (const size_t cut : {8u, 12u, 20u, 50u, 66u, 78u, 90u, 114u, 119u}) {
    const Status status =
        MapDeserialize(blob.substr(0, cut), "cut" + std::to_string(tag++))
            .status();
    EXPECT_TRUE(status.IsCorruption()) << "cut at " << cut;
  }
}

TEST(LabelStoreMappedTest, RejectsTrailingBytes) {
  for (const size_t extra : {1u, 8u}) {
    std::string blob = LabelBytes(SampleStore());
    blob.append(extra, '\0');
    const Status status =
        MapDeserialize(blob, "trailing" + std::to_string(extra)).status();
    EXPECT_TRUE(status.IsCorruption()) << extra;
    EXPECT_NE(status.message().find("header implies"), std::string::npos)
        << extra;
  }
}

TEST(LabelStoreMappedTest, RejectsForgedHeaderBeforeTouchingArrays) {
  // A forged n/total pair that is internally consistent (total <= n^2) but
  // far beyond the file must fail on the region-size bound, not by walking
  // an offsets array that is not there.
  std::string blob = LabelBytes(SampleStore());
  Poke64(&blob, 8, uint64_t{1} << 20);
  Poke64(&blob, 16, uint64_t{1} << 30);
  const Status forged = MapDeserialize(blob, "forged_total").status();
  EXPECT_TRUE(forged.IsCorruption());
  EXPECT_NE(forged.message().find("truncated"), std::string::npos);
  // An impossible total for n = 3 (at most 9 strictly-ascending keys < 3
  // per side) dies on arithmetic alone.
  blob = LabelBytes(SampleStore());
  Poke64(&blob, 16, 12);
  const Status status = MapDeserialize(blob, "impossible").status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("impossible"), std::string::npos);
  // A vertex count beyond the uint32 id space, including the boundary
  // n == 2^32, which no uint32 key could address.
  for (const uint64_t n : {uint64_t{1} << 33, uint64_t{1} << 32}) {
    blob = LabelBytes(SampleStore());
    Poke64(&blob, 8, n);
    const Status id_space =
        MapDeserialize(blob, "id_space" + std::to_string(n)).status();
    EXPECT_TRUE(id_space.IsCorruption()) << n;
    EXPECT_NE(id_space.message().find("uint32"), std::string::npos) << n;
  }
}

TEST(LabelStoreMappedTest, RejectsBadOffsetsArrays) {
  struct Case {
    const char* tag;
    size_t offset;  // Into the reference blob.
    uint64_t value;
    const char* message;
  };
  const Case cases[] = {
      {"nonzero_start", 32, 1, "span"},  // off_out[0] must be 0.
      // off_out {0, 1, 1, 1}: monotone, but short of total_out = 3.
      {"short_end", 56, 1, "span"},
      {"decreasing", 40, 3, "monotone"},  // off_out {0, 3, 1, 3}.
      {"beyond_total", 40, 9, "monotone"},  // off_out {0, 9, 1, 3}.
  };
  for (const Case& c : cases) {
    std::string blob = LabelBytes(SampleStore());
    Poke64(&blob, c.offset, c.value);
    const Status status = MapDeserialize(blob, c.tag).status();
    EXPECT_TRUE(status.IsCorruption()) << c.tag;
    EXPECT_NE(status.message().find(c.message), std::string::npos)
        << c.tag << ": " << status.ToString();
  }
  std::string nonzero_pad = LabelBytes(SampleStore());
  nonzero_pad[77] = '\x01';  // Inside the Lout keys pad (bytes 76..79).
  const Status status = MapDeserialize(nonzero_pad, "pad").status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("padding"), std::string::npos);
}

TEST(LabelStoreMappedTest, MapLabelStoreForCrossChecksVertexCount) {
  auto blob = testing_util::MapBytes(LabelBytes(SampleStore()),
                                       "label_store.crosscheck");
  ASSERT_NE(blob, nullptr);
  const Digraph match = Digraph::FromEdges(3, {{0, 1}});
  auto ok = MapLabelStoreFor(match, MappedRegion{blob, 0}, "test oracle");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(*ok == SampleStore());

  const Digraph mismatch = Digraph::FromEdges(4, {{0, 1}});
  const Status status =
      MapLabelStoreFor(mismatch, MappedRegion{blob, 0}, "test oracle")
          .status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("test oracle"), std::string::npos);
}


// --- Validate(): the explicit full scan of key values FromMapped skips.

TEST(LabelStoreValidateTest, AcceptsWellFormedStoresOfEveryBacking) {
  const LabelStore sealed = SampleStore();
  auto mapped = MapDeserialize(LabelBytes(sealed), "validate_ok");
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(sealed.Validate().ok());
  EXPECT_TRUE(mapped->Validate().ok());
  EXPECT_TRUE(LabelStore().Validate().ok());
}

TEST(LabelStoreValidateTest, RejectsKeyValuesThatFromMappedAccepts) {
  // The sample with Lin(2) = {0, 2}: the reference layout up to the Lin
  // keys, which hold {1} at 112 and {0, 2} at 116/120, then a pad.
  LabelBuilder lin_pair = SampleRows();
  lin_pair.InsertIn(2, 2);
  const std::string sample = LabelBytes(SampleStore());
  const std::string lin_pair_blob = LabelBytes(std::move(lin_pair).Seal());
  struct Case {
    const char* tag;
    const std::string* base;
    std::vector<std::pair<size_t, uint32_t>> pokes;  // (u32 key offset, key)
    const char* side_and_row;
    const char* message;
  };
  const Case cases[] = {
      // Lout(2) = {0, 0}.
      {"duplicate", &sample, {{72, 0}}, "Lout row 2", "ascending"},
      // Lout(2) = {2, 1}.
      {"unsorted", &sample, {{68, 2}, {72, 1}}, "Lout row 2", "ascending"},
      // Key 7, n = 3.
      {"out_of_range", &sample, {{64, 7}}, "Lout row 0", "range"},
      {"lin_out_of_range", &sample, {{116, 3}}, "Lin row 2", "range"},
      // Lin(2) = {2, 0}.
      {"lin_unsorted", &lin_pair_blob, {{116, 2}, {120, 0}}, "Lin row 2",
       "ascending"},
  };
  for (const Case& c : cases) {
    std::string blob = *c.base;
    for (const auto& [offset, key] : c.pokes) Poke32(&blob, offset, key);
    auto mapped = MapDeserialize(blob, c.tag);
    ASSERT_TRUE(mapped.ok()) << c.tag << ": " << mapped.status().ToString();
    const Status status = mapped->Validate();
    EXPECT_TRUE(status.IsCorruption()) << c.tag;
    EXPECT_NE(status.message().find(c.side_and_row), std::string::npos)
        << c.tag << ": " << status.ToString();
    EXPECT_NE(status.message().find(c.message), std::string::npos)
        << c.tag << ": " << status.ToString();
  }
}

}  // namespace
}  // namespace reach
