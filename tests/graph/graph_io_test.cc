#include "graph/graph_io.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace reach {
namespace {

TEST(GraphIoTest, EdgeListRoundTrip) {
  Digraph g = RandomDag(100, 300, 1);
  std::stringstream ss;
  ASSERT_TRUE(WriteEdgeList(g, ss).ok());
  auto back = ReadEdgeList(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->CollectEdges(), g.CollectEdges());
}

TEST(GraphIoTest, EdgeListSkipsComments) {
  std::stringstream ss("# header\n% alt comment\n0 1\n\n1 2\n");
  auto g = ReadEdgeList(ss);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_TRUE(g->HasEdge(1, 2));
}

TEST(GraphIoTest, EdgeListRejectsGarbage) {
  std::stringstream ss("0 1\nnot an edge\n");
  auto g = ReadEdgeList(ss);
  EXPECT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
}

TEST(GraphIoTest, EdgeListRejectsTrailingGarbage) {
  std::stringstream ss("0 1\n1 2 junk\n");
  auto g = ReadEdgeList(ss);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
  // The error names the offending line so a corrupt multi-GB dump is
  // debuggable.
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos)
      << g.status().ToString();
  EXPECT_NE(g.status().message().find("junk"), std::string::npos);
}

TEST(GraphIoTest, EdgeListRejectsThreeVertexIds) {
  std::stringstream ss("1 2 3\n");
  auto g = ReadEdgeList(ss);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
}

TEST(GraphIoTest, EdgeListRejectsNonDecimalTokens) {
  // istream extraction would accept all of these; the strict parser must
  // not (PR 2 strict-parse policy).
  for (const char* line : {"-1 2\n", "+1 2\n", "0x5 2\n", "1 2e3\n"}) {
    std::stringstream ss(line);
    auto g = ReadEdgeList(ss);
    EXPECT_FALSE(g.ok()) << line;
    EXPECT_TRUE(g.status().IsCorruption()) << line;
  }
}

TEST(GraphIoTest, EdgeListAcceptsTrailingWhitespace) {
  std::stringstream ss("0 1  \n1 2\t\n");
  auto g = ReadEdgeList(ss);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST(GraphIoTest, GraRoundTrip) {
  Digraph g = CitationDag(80, 2.5, 2);
  std::stringstream ss;
  ASSERT_TRUE(WriteGra(g, ss).ok());
  auto back = ReadGra(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_vertices(), g.num_vertices());
  EXPECT_EQ(back->CollectEdges(), g.CollectEdges());
}

TEST(GraphIoTest, GraAcceptsBareCountHeader) {
  std::stringstream ss("3\n0: 1 2 #\n1: #\n2: 1 #\n");
  auto g = ReadGra(ss);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 3u);
}

TEST(GraphIoTest, GraRejectsOutOfRange) {
  std::stringstream ss("2\n0: 5 #\n");
  auto g = ReadGra(ss);
  EXPECT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
}

TEST(GraphIoTest, GraRejectsMissingColon) {
  std::stringstream ss("2\n0 1\n");
  auto g = ReadGra(ss);
  EXPECT_FALSE(g.ok());
}

TEST(GraphIoTest, BinaryRoundTrip) {
  Digraph g = TreeLikeDag(500, 60, 3);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(WriteBinary(g, ss).ok());
  auto back = ReadBinary(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_vertices(), g.num_vertices());
  EXPECT_EQ(back->CollectEdges(), g.CollectEdges());
}

TEST(GraphIoTest, BinaryRejectsBadMagic) {
  std::stringstream ss("this is not a graph");
  auto g = ReadBinary(ss);
  EXPECT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
}

namespace {

// Forges a binary-snapshot blob from raw header fields + row bytes, for the
// corrupt-file regressions below (WriteBinary can only produce valid files).
std::string BinaryBlob(uint64_t n, uint64_t m,
                       const std::string& rows = std::string()) {
  const uint64_t magic = 0x52454143483031ULL;  // Mirrors graph_io.cc.
  std::string blob;
  blob.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  blob.append(reinterpret_cast<const char*>(&n), sizeof(n));
  blob.append(reinterpret_cast<const char*>(&m), sizeof(m));
  blob += rows;
  return blob;
}

std::string RowBytes(uint32_t deg, const std::vector<uint32_t>& neighbors) {
  std::string row(reinterpret_cast<const char*>(&deg), sizeof(deg));
  row.append(reinterpret_cast<const char*>(neighbors.data()),
             neighbors.size() * sizeof(uint32_t));
  return row;
}

reach::StatusOr<reach::Digraph> ReadBlob(const std::string& blob) {
  std::stringstream ss(blob,
                       std::ios::in | std::ios::out | std::ios::binary);
  return reach::ReadBinary(ss);
}

}  // namespace

// A hostile header must fail with Corruption before it can size an
// allocation (the pre-hardening reader did edges.reserve(m) -> OOM).
TEST(GraphIoTest, BinaryRejectsHugeEdgeCountWithoutAllocating) {
  auto g = ReadBlob(BinaryBlob(4, uint64_t{1} << 60,
                               RowBytes(1, {1}) + RowBytes(0, {}) +
                                   RowBytes(0, {}) + RowBytes(0, {})));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
  EXPECT_NE(g.status().message().find("impossible"), std::string::npos)
      << g.status().ToString();
}

TEST(GraphIoTest, BinaryRejectsVertexCountBeyondIdSpace) {
  auto g = ReadBlob(BinaryBlob(uint64_t{1} << 33, 0));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
}

TEST(GraphIoTest, BinaryRejectsEdgesOnZeroVertices) {
  auto g = ReadBlob(BinaryBlob(0, 5));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
}

TEST(GraphIoTest, BinaryRejectsHugeVertexCountOnTruncatedFile) {
  // n claims 2^32 rows; the stream ends immediately. Must fail fast with
  // Corruption, not allocate per-vertex structures.
  auto g = ReadBlob(BinaryBlob(uint64_t{1} << 32, 0));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
}

// A row's degree claiming more neighbors than vertices is structurally
// impossible and must be rejected before the deg-sized read.
TEST(GraphIoTest, BinaryRejectsDegreeExceedingVertexCount) {
  auto g = ReadBlob(BinaryBlob(3, 2, RowBytes(200, {1, 2})));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
  EXPECT_NE(g.status().message().find("degree"), std::string::npos)
      << g.status().ToString();
}

TEST(GraphIoTest, BinaryRejectsRowDegreesExceedingHeaderEdgeCount) {
  // Header says 1 edge; row 0 alone claims 2.
  auto g = ReadBlob(BinaryBlob(3, 1,
                               RowBytes(2, {1, 2}) + RowBytes(0, {}) +
                                   RowBytes(0, {})));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
}

TEST(GraphIoTest, BinaryRejectsTruncatedRowData) {
  // Row 0 claims 2 neighbors but only 1 is present.
  auto g = ReadBlob(BinaryBlob(3, 2, RowBytes(2, {1})));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
}

TEST(GraphIoTest, BinaryRejectsMissingRows) {
  auto g = ReadBlob(BinaryBlob(3, 0, RowBytes(0, {})));  // 1 of 3 rows.
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
}

TEST(GraphIoTest, BinaryRejectsEdgeCountMismatch) {
  // Rows deliver 0 edges but the header promised 1.
  auto g = ReadBlob(BinaryBlob(2, 1, RowBytes(0, {}) + RowBytes(0, {})));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
}

TEST(GraphIoTest, BinaryRejectsTrailingBytes) {
  auto g = ReadBlob(BinaryBlob(2, 1, RowBytes(1, {1}) + RowBytes(0, {})) +
                    "extra");
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
  EXPECT_NE(g.status().message().find("trailing"), std::string::npos)
      << g.status().ToString();
}

TEST(GraphIoTest, BinaryRejectsOutOfRangeNeighbor) {
  auto g = ReadBlob(BinaryBlob(2, 1, RowBytes(1, {7}) + RowBytes(0, {})));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
}

// The header check enforces the simple-digraph bound m <= n*(n-1) exactly:
// m = 7 on 3 vertices slips past the older m <= n^2 check but is still
// impossible for a loop-free simple digraph (max 6).
TEST(GraphIoTest, BinaryRejectsEdgeCountAboveSimpleDigraphBound) {
  auto g = ReadBlob(BinaryBlob(3, 7));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
  EXPECT_NE(g.status().message().find("impossible"), std::string::npos)
      << g.status().ToString();
}

// WriteBinary can never emit deg == n (a row holds at most n-1 non-self
// neighbors), so the reader rejects it before the deg-sized read.
TEST(GraphIoTest, BinaryRejectsDegreeEqualToVertexCount) {
  auto g = ReadBlob(BinaryBlob(3, 3, RowBytes(3, {0, 1, 2})));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
  EXPECT_NE(g.status().message().find("degree"), std::string::npos)
      << g.status().ToString();
}

TEST(GraphIoTest, BinaryRejectsSelfLoopRow) {
  auto g = ReadBlob(BinaryBlob(2, 1, RowBytes(1, {0}) + RowBytes(0, {})));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
  EXPECT_NE(g.status().message().find("self-loop"), std::string::npos)
      << g.status().ToString();
}

TEST(GraphIoTest, BinaryRejectsDuplicateNeighbors) {
  auto g = ReadBlob(BinaryBlob(3, 2,
                               RowBytes(2, {1, 1}) + RowBytes(0, {}) +
                                   RowBytes(0, {})));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
  EXPECT_NE(g.status().message().find("ascending"), std::string::npos)
      << g.status().ToString();
}

TEST(GraphIoTest, BinaryRejectsUnsortedRow) {
  auto g = ReadBlob(BinaryBlob(3, 2,
                               RowBytes(2, {2, 1}) + RowBytes(0, {}) +
                                   RowBytes(0, {})));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
  EXPECT_NE(g.status().message().find("ascending"), std::string::npos)
      << g.status().ToString();
}

// The writer/reader contract stays symmetric: a keep_self_loops digraph
// (constructible, and serializable as text) must be refused by WriteBinary
// rather than emitted as a file ReadBinary then rejects.
TEST(GraphIoTest, BinaryWriterRefusesSelfLoopGraphs) {
  const Digraph g =
      Digraph::FromEdges(2, {{0, 0}, {0, 1}}, /*keep_self_loops=*/true);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_TRUE(WriteBinary(g, ss).IsInvalidArgument());
  // All-or-nothing: the rejected graph must not leave a partial header or
  // rows behind on the stream.
  EXPECT_TRUE(ss.str().empty());
}

TEST(GraphIoTest, FileDispatchByExtension) {
  Digraph g = RandomDag(60, 150, 4);
  for (const char* name :
       {"/tmp/reach_io_test.txt", "/tmp/reach_io_test.gra",
        "/tmp/reach_io_test.bin"}) {
    ASSERT_TRUE(WriteGraphFile(g, name).ok()) << name;
    auto back = ReadGraphFile(name);
    ASSERT_TRUE(back.ok()) << name << ": " << back.status().ToString();
    EXPECT_EQ(back->CollectEdges(), g.CollectEdges()) << name;
    std::remove(name);
  }
}

TEST(GraphIoTest, MissingFileIsIOError) {
  auto g = ReadGraphFile("/tmp/definitely_missing_reach_graph.bin");
  EXPECT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsIOError());
}

namespace {

/// The temp file ReadEdgeListFileFromString writes for `tag`.
std::string TempEdgeListPath(const std::string& tag) {
  return testing_util::TempPath("graph_io_test." + tag + ".txt");
}

/// Writes `content` to a temp file, reads it through the streamed file
/// reader, and removes the file.
StatusOr<Digraph> ReadEdgeListFileFromString(const std::string& content,
                                             const std::string& tag,
                                             GraphReadStats* stats = nullptr) {
  const std::string path = TempEdgeListPath(tag);
  {
    std::ofstream out(path);
    out << content;
    EXPECT_TRUE(out.good()) << path;
  }
  auto g = ReadEdgeListFile(path, stats);
  std::remove(path.c_str());
  return g;
}

}  // namespace

// The streamed file reader must produce exactly the graph the
// one-pass stream reader does — including on the awkward inputs: comments,
// blank lines, duplicate edges, self-loops (dropped, but they still grow
// the vertex space), unsorted rows, and vertex-id gaps.
TEST(GraphIoTest, EdgeListFileStreamedMatchesOnePassReader) {
  const std::string content =
      "# header comment\n"
      "5 2\n"
      "0 3\n"
      "% alt comment\n"
      "\n"
      "0 3\n"   // Duplicate.
      "7 7\n"   // Self-loop: no edge, but vertex 7 exists.
      "5 1\n"
      "2 0\n";
  std::istringstream one_pass_in(content);
  auto one_pass = ReadEdgeList(one_pass_in);
  auto two_pass = ReadEdgeListFileFromString(content, "awkward");
  ASSERT_TRUE(one_pass.ok()) << one_pass.status().ToString();
  ASSERT_TRUE(two_pass.ok()) << two_pass.status().ToString();
  EXPECT_EQ(two_pass->num_vertices(), 8u);
  EXPECT_EQ(two_pass->num_vertices(), one_pass->num_vertices());
  EXPECT_EQ(two_pass->CollectEdges(), one_pass->CollectEdges());
}

TEST(GraphIoTest, EdgeListFileStreamedRejectsSameErrorsAsOnePass) {
  for (const char* bad : {"0 1\nnot numbers\n", "0 1 2\n", "0 -1\n"}) {
    std::istringstream in(bad);
    EXPECT_FALSE(ReadEdgeList(in).ok()) << bad;
    EXPECT_FALSE(ReadEdgeListFileFromString(bad, "bad").ok()) << bad;
  }
}

TEST(GraphIoTest, EdgeListFileStreamedLargeGraphRoundTrip) {
  // Large enough that the streamed reader's staging and in-place
  // canonicalization all do real work across many rows.
  Digraph g = RandomDag(20000, 60000, 9);
  std::stringstream ss;
  ASSERT_TRUE(WriteEdgeList(g, ss).ok());
  auto back = ReadEdgeListFileFromString(ss.str(), "large");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_vertices(), g.num_vertices());
  EXPECT_EQ(back->CollectEdges(), g.CollectEdges());
}

// Satellite regression for the sliced binary reader: a single row larger
// than the 2^16-entry scratch slice must stream through the bounded
// buffer and round-trip byte-exactly (the old reader sized its scratch
// from the untrusted per-row degree).
TEST(GraphIoTest, BinaryRowLargerThanScratchSliceRoundTrips) {
  const size_t kLeaves = (1 << 16) + 1234;
  std::vector<Edge> edges;
  edges.reserve(kLeaves);
  for (size_t i = 0; i < kLeaves; ++i) {
    edges.push_back({0, static_cast<Vertex>(i + 1)});
  }
  const Digraph g = Digraph::FromEdges(kLeaves + 1, std::move(edges));
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(WriteBinary(g, ss).ok());
  auto back = ReadBinary(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_vertices(), g.num_vertices());
  EXPECT_EQ(back->num_edges(), g.num_edges());
  EXPECT_EQ(back->OutNeighbors(0).size(), kLeaves);
  EXPECT_EQ(back->CollectEdges(), g.CollectEdges());
}

namespace {

/// Byte-level CSR identity: same vertex count and, per vertex, the same
/// out- and in-rows — i.e. identical offsets, heads and tails arrays.
void ExpectSameCsr(const Digraph& got, const Digraph& want,
                   const std::string& what) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices()) << what;
  ASSERT_EQ(got.num_edges(), want.num_edges()) << what;
  for (Vertex v = 0; v < want.num_vertices(); ++v) {
    const auto got_out = got.OutNeighbors(v);
    const auto want_out = want.OutNeighbors(v);
    ASSERT_TRUE(std::equal(got_out.begin(), got_out.end(), want_out.begin(),
                           want_out.end()))
        << what << ": out-row " << v;
    const auto got_in = got.InNeighbors(v);
    const auto want_in = want.InNeighbors(v);
    ASSERT_TRUE(std::equal(got_in.begin(), got_in.end(), want_in.begin(),
                           want_in.end()))
        << what << ": in-row " << v;
  }
}

/// Requires `got` to be the graph or the error `want` is, where `got` read
/// the file at `path` and `want` read the same bytes from a stream: the
/// file reader's size-rule error also names the file.
void ExpectSameRead(const StatusOr<Digraph>& got, const StatusOr<Digraph>& want,
                    const std::string& path, const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what << ": " << got.status().ToString();
  if (want.ok()) {
    ExpectSameCsr(*got, *want, what);
    return;
  }
  EXPECT_EQ(got.status().code(), want.status().code()) << what;
  const std::string named =
      want.status().IsResourceExhausted() ? path + ": " : "";
  EXPECT_EQ(got.status().message(), named + want.status().message()) << what;
}

/// The cuts ReadEdgeListFile makes in a `size`-byte file for `ranges`
/// ranges: evenly spaced, before each is moved on to a line start.
std::vector<uint64_t> EvenCuts(uint64_t size, size_t ranges) {
  std::vector<uint64_t> cuts;
  for (size_t i = 1; i < ranges; ++i) cuts.push_back(size * i / ranges);
  return cuts;
}

/// Reads `content` through the one-pass stream reader, through the file
/// reader, and through the file reader cut into 1, 2, 3, 4 and 7 ranges,
/// and requires the same graph or the same error from all; every file read
/// must also report the same passes and canonical flag, and no more ranges
/// than it was cut into. `stats` gets the uncut file read's. Returns the
/// one-pass result for case-specific checks.
StatusOr<Digraph> ReadBothWays(const std::string& content,
                               const std::string& tag,
                               GraphReadStats* stats = nullptr) {
  std::istringstream in(content);
  StatusOr<Digraph> one_pass = ReadEdgeList(in);
  const std::string path = TempEdgeListPath(tag);
  {
    std::ofstream out(path, std::ios::binary);
    out << content;
    EXPECT_TRUE(out.good()) << path;
  }
  GraphReadStats file_stats;
  ExpectSameRead(ReadEdgeListFile(path, &file_stats), one_pass, path, tag);
  for (const size_t ranges : {1, 2, 3, 4, 7}) {
    const std::string what = tag + " in " + std::to_string(ranges) + " ranges";
    GraphReadStats cut_stats;
    const StatusOr<Digraph> cut = internal::ReadEdgeListFileCutAt(
        path, EvenCuts(content.size(), ranges), &cut_stats);
    ExpectSameRead(cut, one_pass, path, what);
    if (!cut.ok()) continue;
    EXPECT_EQ(cut_stats.passes, file_stats.passes) << what;
    EXPECT_EQ(cut_stats.canonical_input, file_stats.canonical_input) << what;
    EXPECT_GE(cut_stats.ranges, 1) << what;
    EXPECT_LE(cut_stats.ranges, static_cast<int>(ranges)) << what;
  }
  std::remove(path.c_str());
  if (stats != nullptr) *stats = file_stats;
  return one_pass;
}

// Mirrors the private chunk size of the text scanner in graph_io.cc.
constexpr size_t kChunk = size_t{64} << 10;

/// `count` copies of the 4-byte line "0 1\n".
std::string FillerLines(size_t count) {
  std::string out;
  for (size_t i = 0; i < count; ++i) out += "0 1\n";
  return out;
}

}  // namespace

// Scanner edge cases: every case goes through both edge-list readers and
// must yield the same graph or the same error.
TEST(GraphIoTest, ScannerLineStraddlingChunkBoundary) {
  // 16383 filler lines end 4 bytes before the boundary, so the next line
  // starts in one chunk and ends in the next.
  std::string content = FillerLines(kChunk / 4 - 1) + "12345 67890\n";
  ASSERT_LT(content.size() - 12, kChunk);
  ASSERT_GT(content.size(), kChunk);
  auto g = ReadBothWays(content, "straddle");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(g->HasEdge(12345, 67890));
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST(GraphIoTest, ScannerLinesLongerThanAChunk) {
  // A comment, an edge behind more than a chunk of blanks, then an edge.
  const std::string content = "#" + std::string(kChunk + 100, 'c') + "\n" +
                              std::string(kChunk + 7, ' ') + "4 5\t\n6 7";
  auto g = ReadBothWays(content, "long");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(g->HasEdge(4, 5));
  EXPECT_TRUE(g->HasEdge(6, 7));
  EXPECT_EQ(g->num_edges(), 2u);

  // A long bad line is reported whole, with its line number.
  const std::string junk(2 * kChunk, 'y');
  auto bad = ReadBothWays("0 1\n1 2 " + junk + "\n", "long_bad");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsCorruption());
  EXPECT_NE(bad.status().message().find("line 2: trailing '" + junk + "'"),
            std::string::npos);
}

TEST(GraphIoTest, ScannerAcceptsCrlfAndTabs) {
  auto g = ReadBothWays("# crlf\r\n0\t1\r\n1 \t 2\r\n\t2\t3\t\r\n", "crlf");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_edges(), 3u);
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_TRUE(g->HasEdge(1, 2));
  EXPECT_TRUE(g->HasEdge(2, 3));
  // A CRLF blank line is not empty: "\r" is a whitespace-only line.
  auto blank = ReadBothWays("0 1\r\n\r\n1 2\r\n", "crlf_blank");
  ASSERT_FALSE(blank.ok());
  EXPECT_NE(blank.status().message().find("line 2:"), std::string::npos)
      << blank.status().ToString();
}

TEST(GraphIoTest, ScannerReadsLastLineWithoutNewline) {
  auto g = ReadBothWays("0 1\n1 2", "no_newline");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(g->HasEdge(1, 2));
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST(GraphIoTest, ScannerRejectsWhitespaceOnlyAndIndentedComment) {
  for (const char* bad : {"0 1\n   \n", "0 1\n\t\n", "0 1\n  # comment\n"}) {
    auto g = ReadBothWays(bad, "blank");
    ASSERT_FALSE(g.ok()) << bad;
    EXPECT_TRUE(g.status().IsCorruption()) << bad;
    EXPECT_NE(g.status().message().find("line 2:"), std::string::npos)
        << g.status().ToString();
  }
}

TEST(GraphIoTest, ScannerRejectsEmbeddedNul) {
  const std::string content("0 1\n2\0 3\n", 9);
  auto g = ReadBothWays(content, "nul");
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
  EXPECT_NE(g.status().message().find("line 2:"), std::string::npos);
  // The offending text, NUL included, is quoted back.
  EXPECT_NE(g.status().message().find(std::string("'2\0 3'", 6)),
            std::string::npos);
}

TEST(GraphIoTest, ScannerCountsLinesPastTheFirstChunk) {
  // 40000 4-byte lines span three chunks; the bad line is number 40001.
  auto g = ReadBothWays(FillerLines(40000) + "not an edge\n", "late");
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find(
                "edge list line 40001: expected 'u v', got 'not an edge'"),
            std::string::npos)
      << g.status().ToString();
  auto big = ReadBothWays(FillerLines(40000) + "0 4294967296\n", "late_big");
  ASSERT_FALSE(big.ok());
  EXPECT_TRUE(big.status().IsInvalidArgument());
  EXPECT_NE(big.status().message().find("at line 40001"), std::string::npos)
      << big.status().ToString();
}

// An id of UINT32_MAX implies 2^32 vertices, one more than Vertex can
// count. Both readers used to size a 2^32-row CSR from it and abort on
// std::bad_alloc; the line is now rejected before anything is sized.
TEST(GraphIoTest, EdgeListRejectsIdWithNoRoomForTheVertexCount) {
  for (const char* line : {"4294967295 0\n", "0 4294967295\n"}) {
    auto g = ReadBothWays(line, "max_id");
    ASSERT_FALSE(g.ok()) << line;
    EXPECT_TRUE(g.status().IsInvalidArgument()) << g.status().ToString();
    EXPECT_NE(g.status().message().find("vertex id 4294967295"),
              std::string::npos)
        << g.status().ToString();
  }
}

// Differential round trip: generated graphs written as edge lists read back
// byte-identical through both readers.
TEST(GraphIoTest, EdgeListRoundTripIsByteIdenticalOnBothReaders) {
  const std::vector<std::pair<std::string, Digraph>> graphs = {
      {"random", RandomDag(1500, 4000, 21)},
      {"citation", CitationDag(2000, 3.0, 22)},
      {"tree", TreeLikeDag(2500, 1500, 23)},
      {"cyclic", RandomDigraphWithCycles(1200, 3500, 400, 24)},
  };
  for (const auto& [name, g] : graphs) {
    std::stringstream ss;
    ASSERT_TRUE(WriteEdgeList(g, ss).ok()) << name;
    std::istringstream one_pass_in(ss.str());
    auto one_pass = ReadEdgeList(one_pass_in);
    ASSERT_TRUE(one_pass.ok()) << name << ": " << one_pass.status().ToString();
    auto two_pass = ReadEdgeListFileFromString(ss.str(), "roundtrip_" + name);
    ASSERT_TRUE(two_pass.ok()) << name << ": " << two_pass.status().ToString();
    // An edge list cannot carry isolated vertices past the largest id, so
    // the expected CSR is the original's edges over the re-read id space.
    ASSERT_LE(one_pass->num_vertices(), g.num_vertices()) << name;
    const Digraph want =
        Digraph::FromEdges(one_pass->num_vertices(), g.CollectEdges());
    ExpectSameCsr(*one_pass, want, name + " one-pass");
    ExpectSameCsr(*two_pass, want, name + " two-pass");
  }
}

TEST(GraphIoTest, ReadGraphFileMatchesStreamedEdgeListReader) {
  const Digraph g = RandomDigraphWithCycles(3000, 9000, 500, 31);
  const std::string path =
      testing_util::TempPath("graph_io_test.dispatch.txt");
  ASSERT_TRUE(WriteGraphFile(g, path).ok());
  GraphReadStats stats;
  auto via_dispatch = ReadGraphFile(path, &stats);
  auto streamed = ReadEdgeListFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(via_dispatch.ok()) << via_dispatch.status().ToString();
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ExpectSameCsr(*via_dispatch, *streamed, "dispatch");
  // WriteGraphFile lists the edges in source order.
  EXPECT_EQ(stats.passes, 1);
}

namespace {

// The named pipe ReadThroughPipe reads from.
std::string FifoPath() {
  return testing_util::TempPath("graph_io_test.fifo.txt");
}

/// Writes `content` into a named pipe from another thread and reads it
/// through ReadGraphFile.
StatusOr<Digraph> ReadThroughPipe(const std::string& content,
                                  GraphReadStats* stats = nullptr) {
  const std::string fifo = FifoPath();
  std::remove(fifo.c_str());
  EXPECT_EQ(mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(fifo, std::ios::binary);
    out << content;
  });
  StatusOr<Digraph> piped = ReadGraphFile(fifo, stats);
  writer.join();
  std::remove(fifo.c_str());
  return piped;
}

}  // namespace

// A pipe cannot be rewound for the second pass, so ReadGraphFile reads it
// in one; the graph is the same.
TEST(GraphIoTest, ReadGraphFileReadsAPipeInOnePass) {
  const std::string content = "# piped\n0 1\n1 2\n2 0\n5 3\n";
  GraphReadStats stats;
  auto piped = ReadThroughPipe(content, &stats);
  ASSERT_TRUE(piped.ok()) << piped.status().ToString();
  EXPECT_EQ(stats.passes, 0);  // The stream reader leaves stats alone.
  std::istringstream in(content);
  auto want = ReadEdgeList(in);
  ASSERT_TRUE(want.ok());
  ExpectSameCsr(*piped, *want, "pipe");
}

namespace {

/// What an edge list should read as, by a tokenizer that shares no code
/// with graph_io.cc: '\n' ends a line (an unterminated last line counts),
/// empty and '#'/'%' lines are skipped, and every other line must split on
/// the C-locale isspace set into exactly two all-digit tokens that fit
/// uint64, both below UINT32_MAX, and both below the size rule's limit of
/// 4 ids a byte of the whole content plus 2^16.
struct ReferenceRead {
  bool ok = true;
  bool range_error = false;  // InvalidArgument rather than Corruption.
  bool size_error = false;   // ResourceExhausted: the size rule.
  size_t line = 0;           // 1-based number of the rejected line.
  uint64_t id = 0;           // The larger id on a size_error line.
  size_t num_vertices = 0;
  std::vector<Edge> edges;   // Self-loop lines included, in file order.
};

/// True when no edge line's source is below the previous one's.
bool SourcesNondecreasing(const std::vector<Edge>& edges) {
  return std::is_sorted(
      edges.begin(), edges.end(),
      [](const Edge& a, const Edge& b) { return a.from < b.from; });
}

/// True when, self-loops aside, each source's heads strictly ascend in file
/// order: no row needs sorting or deduplicating.
bool RowsStrictlyAscending(const std::vector<Edge>& edges) {
  std::vector<Edge> loop_free;
  for (const Edge& e : edges) {
    if (e.from != e.to) loop_free.push_back(e);
  }
  return std::is_sorted(loop_free.begin(), loop_free.end()) &&
         std::adjacent_find(loop_free.begin(), loop_free.end()) ==
             loop_free.end();
}

bool ReferenceNumber(std::string_view token, uint64_t* value) {
  uint64_t result = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (result > (UINT64_MAX - digit) / 10) return false;
    result = result * 10 + digit;
  }
  *value = result;
  return !token.empty();
}

bool ReferenceIsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

ReferenceRead ReferenceParse(std::string_view content,
                             bool size_rule = true) {
  const uint64_t id_limit =
      size_rule ? 4 * content.size() + (uint64_t{1} << 16) : UINT64_MAX;
  ReferenceRead ref;
  size_t line_no = 0;
  std::vector<std::string_view> tokens;
  for (size_t begin = 0; begin < content.size();) {
    const size_t newline = std::min(content.find('\n', begin), content.size());
    const std::string_view line = content.substr(begin, newline - begin);
    begin = newline + 1;
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    tokens.clear();
    for (size_t i = 0; i < line.size();) {
      size_t end = i;
      while (end < line.size() && !ReferenceIsSpace(line[end])) ++end;
      if (end > i) tokens.push_back(line.substr(i, end - i));
      i = end + 1;
    }
    uint64_t u = 0;
    uint64_t v = 0;
    ref.line = line_no;
    if (tokens.size() != 2 || !ReferenceNumber(tokens[0], &u) ||
        !ReferenceNumber(tokens[1], &v)) {
      ref.ok = false;
      return ref;
    }
    if (u >= UINT32_MAX || v >= UINT32_MAX) {
      ref.ok = false;
      ref.range_error = true;
      return ref;
    }
    if (std::max(u, v) >= id_limit) {
      ref.ok = false;
      ref.size_error = true;
      ref.id = std::max(u, v);
      return ref;
    }
    ref.num_vertices = std::max<size_t>(ref.num_vertices, std::max(u, v) + 1);
    ref.edges.push_back({static_cast<Vertex>(u), static_cast<Vertex>(v)});
  }
  return ref;
}

/// True when `message` names "line <line_no>" and not a longer number.
bool NamesLine(const std::string& message, size_t line_no) {
  const std::string needle = "line " + std::to_string(line_no);
  for (size_t at = message.find(needle); at != std::string::npos;
       at = message.find(needle, at + 1)) {
    const size_t after = at + needle.size();
    if (after == message.size() ||
        std::isdigit(static_cast<unsigned char>(message[after])) == 0) {
      return true;
    }
  }
  return false;
}

// Near misses of the in-place line shape `digits [ \t]+ digits [ \t\r]* \n`,
// and lines of that shape, one line each without its '\n'.
const std::vector<std::string>& CorpusShapes() {
  static const std::vector<std::string> shapes = {
      "12 34", "12\t34", "12   34", "12 \t 34", "12 34 \t", "12 34\r",
      "12 34 \r", "12 34\r\r", "12 34\v", "12 34\f", "12\v34", "12\f34",
      "12\r34", " 12 34", "\t12 34",
      "0000000000000000012 34",   // 19 digits: the in-place limit.
      "12 00000000000000000034",  // 20 digits, small value.
      "1234567890123456789 1",    // 19 digits, past UINT32_MAX.
      "18446744073709551615 1",   // UINT64_MAX.
      "18446744073709551616 1",   // Overflows uint64...
      "18446744073709551617 1",   // ...and wraps to 1 in 64 bits.
      "1 18446744073709551629",   // Wraps to 13.
      "1 4294967294", "4294967295 1", "1 4294967295", "4294967296 1",
      "+1 2", "1 +2", "-1 2", "1 -2", "0x1 2", "1 0x2", "1e3 2", "1 2x",
      std::string("1\0 2", 4), std::string("1 2\0", 4), std::string(1, '\0'),
      "1 2 3", "1\t2\t3", "1 2 x", "1 2 #", "1 2 3\r",
      "# comment", "% comment", "#", "%", " # indented", "", " ", "   ",
      "\t", "\r", "\v", "\f", "1", "1 ", "x y",
      // Every id length the word-at-a-time parse splits on: 7 digits fit
      // one word load, 8 fill it, 9 and 10 take the byte loop. Their values
      // pass the size rule only with leading zeros; the rest are rejected
      // by it, with the parsed id quoted in the error.
      "7654321 1", "1 7654321", "12345678 87654321", "99999999 1",
      "123456789 1", "1 987654321", "1234567890 1", "1 4000000000",
      "0000007 0000009", "00000007 00000009", "000000007 0000000009",
      "00000000 1", "0004294967294 1", "1 0004294967295", "4294967294 1"};
  return shapes;
}

/// The sources of filler lines: a walk from `next` that rises by 0 or 1 a
/// line and stops rising at `cap`, so filler keeps a file in source order.
struct SourceWalk {
  uint64_t next = 0;
  uint64_t cap = UINT64_MAX;

  uint64_t Take(Rng* rng) {
    const uint64_t source = next;
    next = std::min(cap, next + rng->Uniform(2));
    return source;
  }
};

/// One well-formed edge line with a random head, separator and line ending.
std::string CorpusEdgeLine(Rng* rng, SourceWalk* sources) {
  static const char* const kSeparators[] = {" ", "\t", "  ", " \t"};
  static const char* const kEndings[] = {"", "", "", " ", "\t", "\r"};
  if (rng->Uniform(50) == 0) return "# filler\n";
  return std::to_string(sources->Take(rng)) + kSeparators[rng->Uniform(4)] +
         std::to_string(rng->Uniform(1000)) + kEndings[rng->Uniform(6)] + "\n";
}

/// Edge lines filling exactly `bytes` (at least 24).
std::string CorpusFillerBytes(Rng* rng, SourceWalk* sources, size_t bytes) {
  std::string out;
  while (bytes - out.size() > 24) out += CorpusEdgeLine(rng, sources);
  out += std::to_string(sources->Take(rng)) + " 1";
  return out + std::string(bytes - out.size() - 1, ' ') + "\n";
}

std::string CorpusFillerLines(Rng* rng, SourceWalk* sources, size_t lines) {
  std::string out;
  for (size_t i = 0; i < lines; ++i) out += CorpusEdgeLine(rng, sources);
  return out;
}

/// Reads `content` through both edge-list readers and requires each to
/// match the reference: the same CSR on accept, the same status code and
/// `line N` on reject, and on a size-rule reject the same id. An accepted
/// file must also have been built with its sources in order exactly when
/// `want_passes` is 1, the file reader must have made `want_passes` passes
/// over it, and it must have skipped canonicalization exactly when that
/// one pass met strictly ascending rows.
void ExpectReadersMatchReference(const std::string& content,
                                 const std::string& tag, int want_passes) {
  const ReferenceRead want = ReferenceParse(content);
  GraphReadStats stats;
  const StatusOr<Digraph> got = ReadBothWays(content, tag, &stats);
  ASSERT_EQ(got.ok(), want.ok) << tag << ": " << got.status().ToString();
  if (want.ok) {
    ExpectSameCsr(*got, Digraph::FromEdges(want.num_vertices, want.edges),
                  tag);
    EXPECT_EQ(SourcesNondecreasing(want.edges), want_passes == 1) << tag;
    EXPECT_EQ(stats.passes, want_passes) << tag;
    EXPECT_EQ(stats.canonical_input,
              want_passes == 1 && RowsStrictlyAscending(want.edges))
        << tag;
    return;
  }
  EXPECT_EQ(got.status().IsInvalidArgument(), want.range_error)
      << tag << ": " << got.status().ToString();
  EXPECT_EQ(got.status().IsResourceExhausted(), want.size_error)
      << tag << ": " << got.status().ToString();
  EXPECT_EQ(got.status().IsCorruption(), !want.range_error && !want.size_error)
      << tag << ": " << got.status().ToString();
  EXPECT_TRUE(NamesLine(got.status().message(), want.line))
      << tag << ": want line " << want.line << ", got "
      << got.status().ToString();
  if (want.size_error) {
    EXPECT_NE(got.status().message().find(
                  "vertex id " + std::to_string(want.id) + " implies"),
              std::string::npos)
        << tag << ": " << got.status().ToString();
  }
}

}  // namespace

// The readers against an independent tokenizer: seeded well-formed lines
// around one near miss. Each near miss sits in a file whose sources are in
// order (the file reader's one-pass path): mid-chunk, across the first
// chunk boundary at several offsets, inside a line longer than a chunk,
// and as an unterminated last line. It also sits in files whose sources
// descend once (the two-pass path): at the second edge line, the earliest
// a descent can come; mid-chunk; on the line across the chunk boundary;
// right after a self-loop line; and on the last line. Both readers share
// the in-place line parse, so comparing them with each other alone could
// not catch a bug in it. The word-at-a-time id parse reads 8 bytes at once:
// the corpus holds ids of every length it splits on, with leading zeros
// and next to UINT32_MAX, and the straddling offsets put an id's last digit
// and its line's '\n' on the chunk's last byte, where a load without the
// chunk's padding leaves the allocation (the ASan job's graph_io_test).
TEST(GraphIoTest, EdgeListReadersMatchIndependentTokenizer) {
  Rng rng(20240611);
  const std::vector<std::string>& shapes = CorpusShapes();
  for (size_t i = 0; i < shapes.size(); ++i) {
    const std::string& shape = shapes[i];
    const std::string tag = "shape " + std::to_string(i);
    const ReferenceRead alone = ReferenceParse(shape, /*size_rule=*/false);
    // Filler ahead of the near miss stays at or below its source, and
    // filler behind it starts there.
    const uint64_t source =
        alone.ok && !alone.edges.empty() ? alone.edges[0].from : 0;
    const auto up_to = [&] { return SourceWalk{0, source}; };
    const auto from = [&] { return SourceWalk{source}; };
    const auto lines = [&](SourceWalk walk, size_t count) {
      return CorpusFillerLines(&rng, &walk, count);
    };
    ExpectReadersMatchReference(
        lines(up_to(), 200) + shape + "\n" + lines(from(), 200),
        tag + " mid-chunk", 1);
    // The shape starts `before` bytes ahead of the boundary: the boundary
    // falls at its start, inside it, before its '\n', or after its '\n'.
    for (const size_t before : {size_t{0}, size_t{1}, shape.size() / 2,
                                shape.size(), shape.size() + 1}) {
      SourceWalk walk = up_to();
      ExpectReadersMatchReference(
          CorpusFillerBytes(&rng, &walk, kChunk - before) + shape + "\n" +
              lines(from(), 50),
          tag + " straddling at " + std::to_string(before), 1);
    }
    ExpectReadersMatchReference(lines(up_to(), 50) + shape +
                                    std::string(kChunk + 3, ' ') + "\n" +
                                    lines(from(), 50),
                                tag + " in a long line", 1);

    // The descending line "0 7" follows sources of at least 1; the shape
    // and its filler follow it in order, or precede it when it is last.
    const std::string descent = "0 7\n";
    const std::string in_order =
        lines(up_to(), 100) + shape + "\n" + lines(from(), 100);
    SourceWalk above{1};
    ExpectReadersMatchReference("3 4\n" + descent + in_order,
                                tag + " descent at the second edge line", 2);
    ExpectReadersMatchReference(
        lines(above, 200) + descent + in_order, tag + " descent mid-chunk", 2);
    SourceWalk to_boundary = above;
    ExpectReadersMatchReference(
        CorpusFillerBytes(&rng, &to_boundary, kChunk - 2) + descent + in_order,
        tag + " descent across the boundary", 2);
    SourceWalk to_loop = above;
    const std::string ahead = CorpusFillerLines(&rng, &to_loop, 200);
    const std::string loop = std::to_string(to_loop.next);
    ExpectReadersMatchReference(
        ahead + loop + " " + loop + "\n" + descent + in_order,
        tag + " descent after a self-loop", 2);
    ExpectReadersMatchReference(in_order + descent,
                                tag + " descent on the last line", 2);
    ExpectReadersMatchReference(lines(up_to(), 200) + shape,
                                tag + " unterminated", 1);
  }
}

// A source-ordered file goes through one pass, yet its rows still come out
// sorted and deduplicated, self-loops dropped. A self-loop line's source
// counts toward the order like any other edge line's.
TEST(GraphIoTest, SourceOrderedFileIsCanonicalizedInOnePass) {
  const std::string ordered =
      "# rows out of order and with duplicates\n"
      "0 9\n0 3\n0 9\n0 1\n0 3\n"
      "2 2\n2 8\n2 4\n2 8\n"
      "5 0\n5 0\n";
  GraphReadStats stats;
  auto g = ReadBothWays(ordered, "ordered_rows", &stats);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(stats.passes, 1);
  EXPECT_EQ(g->num_vertices(), 10u);
  const std::vector<Edge> want = {{0, 1}, {0, 3}, {0, 9},
                                  {2, 4}, {2, 8}, {5, 0}};
  EXPECT_EQ(g->CollectEdges(), want);

  EXPECT_FALSE(stats.canonical_input);

  stats = GraphReadStats{};
  auto after_loop = ReadBothWays("0 1\n5 5\n3 4\n", "loop_descent", &stats);
  ASSERT_TRUE(after_loop.ok()) << after_loop.status().ToString();
  EXPECT_EQ(stats.passes, 2);
}

// One pass skips canonicalization only when every row arrived strictly
// ascending. A duplicate edge or a descending head inside a row makes the
// reader sort and dedupe; a self-loop line is never staged, so it leaves
// the rows as they were. Each file is checked against the reference, the
// canonical flag included, so both branches meet the same oracle.
TEST(GraphIoTest, OnePassCanonicalizesOnlyRowsThatNeedIt) {
  std::stringstream written;
  ASSERT_TRUE(WriteEdgeList(RandomDag(3000, 12000, 41), written).ok());
  std::vector<std::string> lines;
  for (std::string line; std::getline(written, line);) {
    lines.push_back(line + "\n");
  }
  // Line `at` and the next share a source: heads a < b of row `source`.
  size_t at = lines.size() / 2;
  const auto source_of = [&](size_t i) {
    return lines[i].substr(0, lines[i].find(' '));
  };
  while (source_of(at) != source_of(at + 1)) ++at;
  const std::string source = source_of(at);
  const auto joined = [&](const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& part : parts) out += part;
    return out;
  };
  std::vector<std::string> duplicate = lines;
  duplicate.insert(duplicate.begin() + at + 1, lines[at]);
  std::vector<std::string> descending = lines;
  std::swap(descending[at], descending[at + 1]);
  std::vector<std::string> loop = lines;
  loop.insert(loop.begin() + at + 1, source + " " + source + "\n");
  std::vector<std::string> loop_then_descent = descending;
  loop_then_descent.insert(loop_then_descent.begin() + at + 1,
                           source + " " + source + "\n");
  const std::vector<std::tuple<std::string, std::string, bool>> cases = {
      {"as written", joined(lines), true},
      {"duplicate edge", joined(duplicate), false},
      {"descending head", joined(descending), false},
      {"self-loop inside a row", joined(loop), true},
      {"self-loop before a descending head", joined(loop_then_descent),
       false},
  };
  for (const auto& [tag, content, canonical] : cases) {
    ASSERT_EQ(RowsStrictlyAscending(ReferenceParse(content).edges), canonical)
        << tag;
    ExpectReadersMatchReference(content, "canonical " + tag, 1);
  }
}

// Rows are staged as their sources appear, not by source id, so a file
// whose sources keep their order but leave gaps far wider than the file
// (ids up to the size rule's 2^16 slack) is still read in one pass, to the
// same graph.
TEST(GraphIoTest, SparseSourcesInOrderTakeOnePass) {
  const std::string content = FillerLines(1000) + "70000 1\n70000 5\n";
  const ReferenceRead want = ReferenceParse(content);
  ASSERT_TRUE(want.ok);
  GraphReadStats stats;
  const StatusOr<Digraph> got = ReadBothWays(content, "sparse_sources", &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameCsr(*got, Digraph::FromEdges(want.num_vertices, want.edges),
                "sparse sources");
  EXPECT_EQ(stats.passes, 1);
  EXPECT_FALSE(stats.canonical_input);  // Row 0 repeats its head.
}

namespace {

/// Reads `content` from a file cut at `cuts` (byte offsets) and requires
/// the graph or the status ReadEdgeList reads from the same bytes. Returns
/// the cut read's stats.
GraphReadStats ExpectCutReadMatches(const std::string& content,
                                    const std::vector<uint64_t>& cuts,
                                    const std::string& tag) {
  std::istringstream in(content);
  const StatusOr<Digraph> want = ReadEdgeList(in);
  const std::string path = TempEdgeListPath("cut");
  {
    std::ofstream out(path, std::ios::binary);
    out << content;
  }
  GraphReadStats stats;
  ExpectSameRead(internal::ReadEdgeListFileCutAt(path, cuts, &stats), want,
                 path, tag);
  std::remove(path.c_str());
  return stats;
}

/// The byte offset of the first `needle` in `content`, plus `plus`.
uint64_t At(const std::string& content, const std::string& needle,
            size_t plus = 0) {
  const size_t at = content.find(needle);
  EXPECT_NE(at, std::string::npos) << needle;
  return at + plus;
}

}  // namespace

// Where a range boundary falls, and what the lines beside it hold, never
// changes the graph: each file read cut at chosen bytes gives what the
// one-pass stream reader gives. A cut moves on to the next line start, so
// a cut on a line start stays, and one inside a line (however long) moves
// past its '\n'.
TEST(GraphIoTest, RangeBoundariesAnywhereGiveTheSameGraph) {
  const std::string plain = "0 1\n0 2\n1 5\n2 3\n";
  GraphReadStats stats = ExpectCutReadMatches(plain, {At(plain, "1 5")},
                                              "boundary on a line start");
  EXPECT_EQ(stats.passes, 1);
  EXPECT_EQ(stats.ranges, 2);
  EXPECT_TRUE(stats.canonical_input);
  stats = ExpectCutReadMatches(plain, {At(plain, "1 5", 1)},
                               "boundary inside a line");
  EXPECT_EQ(stats.ranges, 2);
  stats = ExpectCutReadMatches(plain, {At(plain, "1 5", 3)},
                               "boundary on a '\\n'");
  EXPECT_EQ(stats.ranges, 2);
  // Every cut inside the last line, or past the file, adds no range.
  stats = ExpectCutReadMatches(plain, {plain.size() - 2, plain.size() + 5},
                               "cuts in the last line");
  EXPECT_EQ(stats.ranges, 1);

  // A line longer than a scan chunk: two cuts inside it make one boundary,
  // past it. Alone in its range or behind another line, it is read whole.
  const std::string long_line = "0 1\n1 2" + std::string(kChunk + 10, ' ') +
                                "\n#" + std::string(kChunk, 'c') +
                                "\n2 3\n3 4\n";
  stats = ExpectCutReadMatches(long_line, {6, kChunk / 2},
                               "cuts inside a long line");
  EXPECT_EQ(stats.ranges, 2);
  EXPECT_EQ(stats.passes, 1);
  stats = ExpectCutReadMatches(
      long_line, {4, At(long_line, "#"), At(long_line, "#", kChunk)},
      "a long line and a long comment in ranges of their own");
  EXPECT_EQ(stats.ranges, 4);
  EXPECT_EQ(stats.passes, 1);

  // Comment lines on either side of a boundary, and a range of comments
  // alone.
  const std::string comments = "# head\n0 1\n% c\n# c\n1 2\n# tail";
  stats = ExpectCutReadMatches(comments, {At(comments, "% c")},
                               "boundary on a comment line");
  EXPECT_EQ(stats.ranges, 2);
  stats = ExpectCutReadMatches(comments,
                               {At(comments, "% c"), At(comments, "1 2"),
                                At(comments, "# tail", 2)},
                               "a range of comments alone");
  EXPECT_EQ(stats.ranges, 3);
  EXPECT_EQ(stats.passes, 1);

  // CRLF lines: a cut between '\r' and '\n' moves past the '\n'.
  const std::string crlf = "0 1\r\n1 2\r\n2 3\r\n";
  stats = ExpectCutReadMatches(crlf, {At(crlf, "\n")}, "a CRLF split");
  EXPECT_EQ(stats.ranges, 2);
  EXPECT_EQ(stats.passes, 1);
}

// A row whose source spans a boundary is joined across it: its heads stay
// in file order, and it counts as canonical only when they ascend across
// the boundary too. A duplicate or a smaller head across it, found only by
// comparing the two ranges, makes the reader sort and dedupe the row, as
// it does inside a range. A range that adds no head to the row (a self-
// loop line alone) carries the row's last head on to the next range.
TEST(GraphIoTest, RowsSpanningRangesAreJoined) {
  const std::vector<std::tuple<std::string, std::string, bool>> cases = {
      {"0 1\n5 2\n5 4\n", "5 6\n6 1\n", true},
      {"0 1\n5 2\n5 4\n", "5 4\n5 7\n6 1\n", false},  // Duplicate 4.
      {"0 1\n5 2\n5 4\n", "5 3\n6 1\n", false},        // 3 below 4.
      {"5 4\n", "5 5\n5 3\n", false},  // A self-loop opens range 2.
      {"5 5\n", "5 3\n", true},         // The row's first head.
  };
  for (const auto& [first, second, canonical] : cases) {
    const std::string tag = first + "|" + second;
    const GraphReadStats stats =
        ExpectCutReadMatches(first + second, {first.size()}, tag);
    EXPECT_EQ(stats.passes, 1) << tag;
    EXPECT_EQ(stats.ranges, 2) << tag;
    EXPECT_EQ(stats.canonical_input, canonical) << tag;
  }
  // Three ranges, the middle one all one row with no head of its own.
  for (const auto& [middle, last, canonical] :
       std::vector<std::tuple<std::string, std::string, bool>>{
           {"5 5\n", "5 1\n", false},
           {"5 5\n", "5 7\n", true},
           {"5 5\n5 5\n", "5 3\n", false},
           {"# only a comment\n", "5 3\n", false}}) {
    const std::string first = "0 2\n5 3\n";
    const std::string tag = first + "|" + middle + "|" + last;
    const GraphReadStats stats = ExpectCutReadMatches(
        first + middle + last, {first.size(), first.size() + middle.size()},
        tag);
    EXPECT_EQ(stats.passes, 1) << tag;
    EXPECT_EQ(stats.ranges, 3) << tag;
    EXPECT_EQ(stats.canonical_input, canonical) << tag;
  }
}

// A source that descends exactly at a boundary, where neither range sees
// a descent of its own, sends the file to the two-pass read.
TEST(GraphIoTest, DescentAtARangeBoundaryTakesTwoPasses) {
  const std::string first = "0 1\n3 1\n3 2\n";
  const std::string content = first + "2 1\n4 0\n";
  const GraphReadStats stats =
      ExpectCutReadMatches(content, {first.size()}, "descent at a boundary");
  EXPECT_EQ(stats.passes, 2);
  EXPECT_EQ(stats.ranges, 1);
  EXPECT_FALSE(stats.canonical_input);
}

// A bad line in any range fails the read with the error the one-pass
// reader gives: the first bad line in file order, with its line number in
// the whole file, and the size rule held to the whole file's size.
TEST(GraphIoTest, RangeErrorsReportTheFirstBadLineOfTheFile) {
  const std::string first = "0 1\nbad line\n1 2\n";
  const std::string second = "2 3\nworse\n";
  ExpectCutReadMatches(first + second, {first.size()}, "errors in two ranges");
  ExpectCutReadMatches("0 1\n1 2\n" + second, {8}, "an error in range 2");
  const std::string filler = FillerLines(100);
  for (const std::string& last : {std::string("0 70000\n"),
                                  std::string("1 4294967296\n"),
                                  std::string("2 3 4\n")}) {
    std::istringstream in(filler + last);
    const StatusOr<Digraph> want = ReadEdgeList(in);
    ASSERT_FALSE(want.ok()) << last;
    EXPECT_TRUE(NamesLine(want.status().message(), 101))
        << want.status().ToString();
    ExpectCutReadMatches(filler + last, {200, filler.size()},
                         "a bad last range: " + last);
  }
}

// The size rule (graph_io.h): an edge list may name ids only below 4 per
// byte of its size plus 2^16. The 11-byte file "0 30000000" used to imply
// a 30M-vertex CSR (1.7 GB and 2.6 s through reach_cli); it now fails at
// its first line, before any row array grows, on every read path.
TEST(GraphIoTest, EdgeListIdBeyondItsSizeIsResourceExhausted) {
  const std::string content = "0 30000000\n";
  ASSERT_EQ(content.size(), 11u);
  const std::string path = TempEdgeListPath("hostile");
  {
    std::ofstream out(path, std::ios::binary);
    out << content;
  }
  const auto start = std::chrono::steady_clock::now();
  const StatusOr<Digraph> streamed = ReadEdgeListFile(path);
  const StatusOr<Digraph> dispatched = ReadGraphFile(path);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  std::remove(path.c_str());
  EXPECT_LT(elapsed, std::chrono::milliseconds(50));
  const std::string why =
      "edge list line 1: vertex id 30000000 implies 30000001 vertices, more "
      "than the 65580 that 11 bytes of input allow";
  for (const StatusOr<Digraph>* g : {&streamed, &dispatched}) {
    ASSERT_FALSE(g->ok());
    EXPECT_TRUE(g->status().IsResourceExhausted()) << g->status().ToString();
    EXPECT_EQ(g->status().message(), path + ": " + why);
  }
  std::istringstream in(content);
  const StatusOr<Digraph> stream = ReadEdgeList(in);
  EXPECT_TRUE(stream.status().IsResourceExhausted())
      << stream.status().ToString();
  EXPECT_EQ(stream.status().message(), why);
}

// The rule's edge, on both ids of a line: the 8-byte file "0 65567\n" may
// name ids below 4 * 8 + 65536 = 65568.
TEST(GraphIoTest, EdgeListSizeRuleBoundIsExact) {
  auto at_limit = ReadBothWays("0 65567\n", "size_rule_at");
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(at_limit->num_vertices(), 65568u);
  for (const char* past : {"0 65568\n", "65568 0\n"}) {
    auto g = ReadBothWays(past, "size_rule_past");
    EXPECT_TRUE(g.status().IsResourceExhausted()) << g.status().ToString();
    EXPECT_NE(g.status().message().find("vertex id 65568 implies"),
              std::string::npos)
        << g.status().ToString();
  }
}

// A pipe has no size to hold each line to, so its count is held to every
// byte it delivered: an early large id stands when enough lines follow it,
// as it does in a file of the same bytes, and fails naming its line when
// they do not.
TEST(GraphIoTest, PipeIsHeldToTheBytesItDelivered) {
  const std::string big = "# piped\n0 70000\n";
  const auto piped_short = ReadThroughPipe(big);
  ASSERT_FALSE(piped_short.ok());
  EXPECT_TRUE(piped_short.status().IsResourceExhausted())
      << piped_short.status().ToString();
  EXPECT_EQ(piped_short.status().message(),
            FifoPath() +
                ": edge list line 2: vertex id 70000 implies 70001 vertices, "
                "more than the 65600 that 16 bytes of input allow");
  const std::string backed = big + FillerLines(300);
  const auto piped = ReadThroughPipe(backed);
  ASSERT_TRUE(piped.ok()) << piped.status().ToString();
  auto from_file = ReadBothWays(backed, "pipe_backed");
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ExpectSameCsr(*piped, *from_file, "pipe backed");
  EXPECT_EQ(piped->num_vertices(), 70001u);
}

// A directory opens as a stream but fails its first read; the error must
// say which path could not be read.
TEST(GraphIoTest, ReadFailureNamesThePath) {
  const std::string dir = testing_util::TempPath("graph_io_test.dir");
  for (const std::string& path : {dir, dir + ".gra", dir + ".bin"}) {
    std::filesystem::create_directories(path);
    StatusOr<Digraph> via_dispatch = ReadGraphFile(path);
    EXPECT_TRUE(via_dispatch.status().IsIOError())
        << via_dispatch.status().ToString();
    EXPECT_NE(via_dispatch.status().message().find(path), std::string::npos)
        << via_dispatch.status().ToString();
    if (path == dir) {
      StatusOr<Digraph> streamed = ReadEdgeListFile(path);
      EXPECT_TRUE(streamed.status().IsIOError())
          << streamed.status().ToString();
      EXPECT_NE(streamed.status().message().find(path), std::string::npos)
          << streamed.status().ToString();
    }
    std::filesystem::remove(path);
  }
}

// .gra hardening: ids and the count are strict decimal tokens, and a count
// must be backed by the adjacency lines the file delivers.
TEST(GraphIoTest, GraRejectsTrailingGarbageInNeighbor) {
  std::stringstream ss("3\n0: 1abc #\n1: #\n2: #\n");
  auto g = ReadGra(ss);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
  EXPECT_NE(g.status().message().find("bad neighbor '1abc' at line 1"),
            std::string::npos)
      << g.status().ToString();
}

TEST(GraphIoTest, GraRejectsSignedIds) {
  for (const char* bad : {"2\n0: -0 #\n1: #\n", "2\n-0: 1 #\n1: #\n",
                          "2\n0: 1 #\n+1: #\n", "2\n0: +1 #\n1: #\n"}) {
    std::stringstream ss(bad);
    auto g = ReadGra(ss);
    ASSERT_FALSE(g.ok()) << bad;
    EXPECT_TRUE(g.status().IsCorruption()) << bad;
  }
}

TEST(GraphIoTest, GraRejectsNonDecimalCountHeader) {
  for (const char* bad : {"3x\n0: 1 #\n1: #\n2: #\n", "+3\n0: #\n1: #\n2: #\n",
                          "graph_for_greach\n3x\n0: #\n1: #\n2: #\n"}) {
    std::stringstream ss(bad);
    auto g = ReadGra(ss);
    ASSERT_FALSE(g.ok()) << bad;
    EXPECT_TRUE(g.status().IsCorruption()) << bad;
    EXPECT_NE(g.status().message().find("vertex count is not a number"),
              std::string::npos)
        << g.status().ToString();
  }
}

// The pre-hardening reader threw std::bad_alloc here (aborting
// reach_serve): the count sized the graph before any line was read.
TEST(GraphIoTest, GraRejectsCountBeyondIdSpace) {
  std::stringstream ss("99999999999\n0: #\n");
  auto g = ReadGra(ss);
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsCorruption());
  EXPECT_NE(g.status().message().find("exceeds uint32 id space"),
            std::string::npos)
      << g.status().ToString();
}

TEST(GraphIoTest, GraRejectsCountBeyondAdjacencyLines) {
  // 2^32 is a valid id-space size, but two lines cannot back it.
  for (const char* bad : {"4294967296\n0: 1 #\n1: #\n", "3\n0: 1 #\n\n1: #\n"}) {
    std::stringstream ss(bad);
    auto g = ReadGra(ss);
    ASSERT_FALSE(g.ok()) << bad;
    EXPECT_TRUE(g.status().IsCorruption()) << bad;
    EXPECT_NE(g.status().message().find("exceeds the 2 adjacency lines"),
              std::string::npos)
        << g.status().ToString();
  }
}

}  // namespace
}  // namespace reach
