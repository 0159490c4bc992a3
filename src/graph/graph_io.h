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
/// Parses a SNAP-style edge list from a file in two streaming passes
/// (degree count, then CSR fill) over the same line parse: no
/// intermediate edge vector, so peak memory stays at the final CSR plus
/// the offsets, one 64 KiB read chunk and one line longer than it — the
/// large-graph load path. Needs a seekable file. Accepts, rejects, and
/// produces exactly what ReadEdgeList does on the same bytes. A failed
/// read is an IOError naming `path`.
StatusOr<Digraph> ReadEdgeListFile(const std::string& path);
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
/// are read in two streamed passes, as ReadEdgeListFile does; a pipe, which
/// cannot be rewound, goes through the one-pass ReadEdgeList instead. A
/// failed read is an IOError naming `path`.
StatusOr<Digraph> ReadGraphFile(const std::string& path);
Status WriteGraphFile(const Digraph& g, const std::string& path);

}  // namespace reach

#endif  // REACH_GRAPH_GRAPH_IO_H_
