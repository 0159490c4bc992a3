// Graph readers/writers. Two text formats used across the reachability
// literature are supported plus a fast binary snapshot:
//
//  * Edge list: optional "# comment" lines, then "u v" per line (SNAP style).
//    Empty lines and lines starting with '#' or '%' are skipped; any other
//    line must be exactly two decimal ids separated by whitespace.
//  * .gra adjacency (used by GRAIL/Path-Tree distributions):
//        graph_for_greach
//        <n>
//        0: 3 5 7 #
//        1: #
//        ...
//  * Binary snapshot: magic + counts + CSR arrays, for fast reload.
//
// Hostile sizes: no reader allocates more than its input's size backs.
//  * Edge list (the size rule): the largest id sets the vertex count, so a
//    line may name ids only below 4 * S + 2^16, where S is the input's
//    size in bytes. A line past it fails with ResourceExhausted naming the
//    file, the line and the id, before any row array grows. Edge lists
//    written from the dataset registry use at most 0.2 ids a byte, 20x
//    under the rule.
//  * .gra: the declared vertex count must be backed by that many
//    adjacency lines.
//  * .bin: the rows must be delivered; they are read in bounded slices,
//    so the header's counts size nothing the rows did not pay for.

#ifndef REACH_GRAPH_GRAPH_IO_H_
#define REACH_GRAPH_GRAPH_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "util/status.h"

namespace reach {

/// Parses a SNAP-style edge list from a stream in one pass, for streams
/// that cannot be rewound. Input is read in 64 KiB chunks, and a plain
/// "u v" line is parsed in place in its chunk; any other line goes whole
/// to the strict tokenizer, which alone decides its verdict and error.
/// The edges are buffered in an edge vector, so peak memory is ~3x the
/// final CSR; files should go through ReadEdgeListFile. The size rule
/// holds each line to the bytes left in `in` when it can seek; a pipe's
/// vertex count is held to all the bytes it delivered, after the last line
/// and before any vertex-sized allocation.
StatusOr<Digraph> ReadEdgeList(std::istream& in);

/// What a streamed edge-list file read did: how many passes it made over
/// the file and where its time went.
struct GraphReadStats {
  int passes = 0;  // 1 if the ranges were in source order, else 2.
  int ranges = 0;  // Byte ranges parsed in parallel (1 on the two-pass path).
  // True when every row arrived strictly ascending in one pass, so no row
  // was sorted or deduplicated (every file WriteEdgeList writes).
  bool canonical_input = false;
  double parse_ms = 0;         // Line parsing, over every pass.
  double canonicalize_ms = 0;  // Row canonicalization and the final copy.
  double reverse_csr_ms = 0;   // Digraph::FromCsr's in-edge CSR.
};

/// Parses a SNAP-style edge list from a file straight into CSR, with no
/// intermediate edge vector — the large-graph load path. The file is cut
/// into DefaultBuildThreads() byte ranges (REACH_THREADS, else the
/// hardware count), but none shorter than 64 KiB, each ending just past a
/// '\n'. Participants of the shared pool parse the ranges at once, each
/// through its own file handle, parsing each id a word at a time and
/// holding every line to the size rule. A range stages its heads, and
/// each row as its source first appears, on fresh pages sized from its
/// bytes, which become resident only as entries are written. If every
/// range keeps its sources nondecreasing (as WriteEdgeList writes them)
/// and each boundary keeps that order too, one parallel copy stitches
/// the ranges into the CSR, and when every row also arrived strictly
/// ascending no row is sorted or deduplicated. Any other file (a descent,
/// or a rejected line) drops the staging and is read again in two passes
/// on one thread: the first counts degrees, the second fills each row in
/// place; every error comes from that read, so it names the file's first
/// bad line. The reverse CSR is built on the read's threads once the
/// graph has enough edges for them to pay. Peak memory stays at what
/// Digraph::FromCsr needs for the final CSR, plus one 64 KiB read chunk
/// and one line longer than it per range. A pipe is refused with an
/// IOError: the second pass needs a file that seeks. Accepts, rejects,
/// and produces exactly what ReadEdgeList does on the same bytes, at any
/// thread count. A failed read is an IOError naming `path`. `stats`, if
/// given, is filled when the read succeeds.
StatusOr<Digraph> ReadEdgeListFile(const std::string& path,
                                   GraphReadStats* stats = nullptr);
/// Writes a SNAP-style edge list ("u v" per line, with a header comment).
Status WriteEdgeList(const Digraph& g, std::ostream& out);

/// Parses the ".gra" adjacency format from a stream. The vertex count must
/// fit the uint32 id space and be backed by that many adjacency lines.
StatusOr<Digraph> ReadGra(std::istream& in);
/// Writes the ".gra" adjacency format.
Status WriteGra(const Digraph& g, std::ostream& out);

/// Binary snapshot (not portable across endianness; fast local reload).
/// Defined only for loop-free simple digraphs — the library's canonical
/// form (GraphBuilder/FromEdges dedupe and drop self-loops by default).
/// WriteBinary rejects self-loop graphs with InvalidArgument so it can
/// never emit a file the hardened ReadBinary refuses to load. ReadBinary
/// streams rows directly into the final CSR (no intermediate edge vector),
/// validating every row before trusting it.
Status WriteBinary(const Digraph& g, std::ostream& out);
StatusOr<Digraph> ReadBinary(std::istream& in);

/// File-path conveniences that dispatch on extension:
/// ".gra" -> gra, ".bin" -> binary, anything else -> edge list. Edge lists
/// are read as ReadEdgeListFile reads them: one parallel pass when the
/// sources are nondecreasing, two more otherwise. A pipe, which cannot be rewound, goes
/// through ReadEdgeList instead. `stats` is filled only by the
/// ReadEdgeListFile path; the others leave it as it was. A failed read is
/// an IOError naming `path`.
StatusOr<Digraph> ReadGraphFile(const std::string& path,
                                GraphReadStats* stats = nullptr);
Status WriteGraphFile(const Digraph& g, const std::string& path);

namespace internal {

/// ReadEdgeListFile with the file cut at `cuts` (ascending byte offsets,
/// each moved on to the next line start) into ranges parsed by one thread
/// each, whatever the file's size: puts range boundaries where a test
/// wants them.
StatusOr<Digraph> ReadEdgeListFileCutAt(const std::string& path,
                                        const std::vector<uint64_t>& cuts,
                                        GraphReadStats* stats = nullptr);

}  // namespace internal

}  // namespace reach

#endif  // REACH_GRAPH_GRAPH_IO_H_
