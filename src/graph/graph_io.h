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

#ifndef REACH_GRAPH_GRAPH_IO_H_
#define REACH_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "graph/digraph.h"
#include "util/status.h"

namespace reach {

/// Parses a SNAP-style edge list from a stream in one pass, for streams
/// that cannot be rewound. Input is read in 64 KiB chunks, and a plain
/// "u v" line is parsed in place in its chunk; any other line goes whole
/// to the strict tokenizer, which alone decides its verdict and error.
/// The edges are buffered in an edge vector, so peak memory is ~3x the
/// final CSR; files should go through ReadEdgeListFile.
StatusOr<Digraph> ReadEdgeList(std::istream& in);

/// What a streamed edge-list file read did: how many passes it made over
/// the file and where its time went.
struct GraphReadStats {
  int passes = 0;              // 1 if the sources were in order, else 2.
  double parse_ms = 0;         // Line parsing, over every pass.
  double canonicalize_ms = 0;  // Sorting and deduplicating each row.
  double reverse_csr_ms = 0;   // Digraph::FromCsr's in-edge CSR.
};

/// Parses a SNAP-style edge list from a file straight into CSR, with no
/// intermediate edge vector — the large-graph load path. The first pass
/// counts degrees; while the edge lines' sources are nondecreasing (as
/// WriteEdgeList writes them) it also stages their heads, which are then
/// the CSR's row array, and the read ends there. At the first descending
/// source the staging is dropped and a second pass fills each row in
/// place. The staging sits on fresh pages sized from the file, which
/// become resident only as heads are written, and are freed before the
/// reverse CSR is built. Peak memory therefore stays at what FromCsr needs
/// for the final CSR, plus one 64 KiB read chunk and one line longer than
/// it. Only the second pass needs a seekable
/// file. Accepts, rejects, and produces exactly what ReadEdgeList does on
/// the same bytes. A failed read is an IOError naming `path`. `stats`, if
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
/// are read as ReadEdgeListFile reads them: one pass when the sources are
/// nondecreasing, two otherwise. A pipe, which cannot be rewound, goes
/// through ReadEdgeList instead. `stats` is filled only by the
/// ReadEdgeListFile path; the others leave it as it was. A failed read is
/// an IOError naming `path`.
StatusOr<Digraph> ReadGraphFile(const std::string& path,
                                GraphReadStats* stats = nullptr);
Status WriteGraphFile(const Digraph& g, const std::string& path);

}  // namespace reach

#endif  // REACH_GRAPH_GRAPH_IO_H_
