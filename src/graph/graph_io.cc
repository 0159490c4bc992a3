#include "graph/graph_io.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <new>
#include <numeric>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/mapped_blob.h"
#include "util/strict_parse.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace reach {

namespace {

constexpr uint64_t kBinaryMagic = 0x52454143483031ULL;  // "REACH01"

// Neighbor rows of a hostile binary file are read in bounded slices so a
// forged degree cannot make us allocate its full claimed size before the
// stream runs dry (see ReadBinary). The same bound paces the offsets
// array: a forged vertex count allocates nothing the delivered rows did
// not pay for.
constexpr size_t kBinaryRowSliceEntries = 1 << 16;
constexpr size_t kBinaryOffsetSliceEntries = 1 << 13;

// Every text reader pulls its input through one fixed-size chunk, so
// reading never costs more than this plus the longest line, whatever the
// file size. Read with istream::read rather than mmap: a mapping SIGBUSes
// if the file is truncated mid-read.
constexpr size_t kScanChunkBytes = size_t{64} << 10;

// The in-place id parse loads 8 bytes at a time, up to 7 past a line's
// '\n', so the chunk carries this much zeroed room past its end.
constexpr size_t kScanPadBytes = 8;

// An edge list may name vertex ids only below kIdsPerInputByte per byte of
// its size plus kIdSlack (graph_io.h states the rule).
constexpr uint64_t kIdsPerInputByte = 4;
constexpr uint64_t kIdSlack = uint64_t{1} << 16;

uint64_t IdLimit(uint64_t bytes) { return kIdsPerInputByte * bytes + kIdSlack; }

// The size of a stream that cannot seek (a pipe).
constexpr uint64_t kUnsized = UINT64_MAX;

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// The C-locale isspace set: the separators istream token extraction used.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Pops the next whitespace-separated token off the front of `*rest`.
/// False when only whitespace is left.
bool NextToken(std::string_view* rest, std::string_view* token) {
  size_t begin = 0;
  while (begin < rest->size() && IsSpace((*rest)[begin])) ++begin;
  if (begin == rest->size()) return false;
  size_t end = begin;
  while (end < rest->size() && !IsSpace((*rest)[end])) ++end;
  *token = rest->substr(begin, end - begin);
  rest->remove_prefix(end);
  return true;
}

/// Pops the next whitespace-separated token off the front of `*rest` and
/// parses it as a strict decimal: the same accept set as NextToken plus
/// ParseDecimalUint64, in one pass over the bytes.
bool NextNumber(std::string_view* rest, uint64_t* value) {
  size_t begin = 0;
  while (begin < rest->size() && IsSpace((*rest)[begin])) ++begin;
  rest->remove_prefix(begin);
  const size_t digits = ParseDecimalPrefix(*rest, value);
  if (digits == 0 || (digits < rest->size() && !IsSpace((*rest)[digits]))) {
    return false;
  }
  rest->remove_prefix(digits);
  return true;
}

/// True when `text` is exactly one strict decimal token, optionally
/// surrounded by whitespace.
bool ParseSoleToken(std::string_view text, uint64_t* out) {
  std::string_view extra;
  return NextNumber(&text, out) && !NextToken(&text, &extra);
}

/// Splits a stream into lines without a string per line: '\n' ends a line
/// and is dropped, an unterminated last line still counts, and a final
/// '\n' adds no empty line (the line-by-line istream semantics). Lines()
/// hands out every whole line buffered in the chunk as one view, for a
/// caller that parses them in place; Next() hands out one line at a time.
/// A partial line at the chunk's end moves to the chunk front before the
/// next read, so only a line longer than the chunk is copied, into a carry
/// buffer that holds that one line. The chunk is zeroed and padded, so a
/// word load anywhere in Lines() stays in initialized memory. The scanner
/// reads at most `limit` bytes: the input ends there.
class LineScanner {
 public:
  explicit LineScanner(std::istream& in, uint64_t limit = kUnsized)
      : in_(in),
        limit_(limit),
        chunk_(std::make_unique<char[]>(kScanChunkBytes + kScanPadBytes)) {}

  /// The whole lines buffered at the cursor, each with its '\n', reading
  /// more input when none is buffered. Empty at end of input and when the
  /// next line is longer than the chunk or unterminated; Next() returns
  /// those. Valid until the scanner next moves.
  std::string_view Lines() {
    if (pos_ == lines_end_) Refill();
    return std::string_view(chunk_.get() + pos_, lines_end_ - pos_);
  }

  /// Moves the cursor past the first `bytes` of Lines(), which hold
  /// `count` lines.
  void Skip(size_t bytes, size_t count) {
    pos_ += bytes;
    line_no_ += count;
  }

  /// Advances to the next line; false at end of input. `*line` stays valid
  /// until the scanner next moves.
  bool Next(std::string_view* line) {
    carry_.clear();
    for (;;) {
      const std::string_view lines = Lines();
      if (!lines.empty()) {
        const size_t len = lines.find('\n');
        Skip(len + 1, 1);
        if (carry_.empty()) {
          *line = lines.substr(0, len);
        } else {
          carry_.append(lines.data(), len);
          *line = carry_;
        }
        return true;
      }
      // No whole line is buffered, so the chunk holds either a full-chunk
      // piece of a longer line or the input's unterminated rest.
      const bool piece = end_ == kScanChunkBytes;
      carry_.append(chunk_.get(), end_);
      end_ = 0;
      if (!piece) {
        if (carry_.empty()) return false;
        ++line_no_;
        *line = carry_;
        return true;
      }
    }
  }

  /// 1-based number of the line Next last returned; after Skip, the number
  /// of lines consumed.
  size_t line_no() const { return line_no_; }

  /// Bytes read from the stream so far.
  uint64_t bytes_read() const { return bytes_read_; }

  /// IOError if the stream failed underneath (rather than ending).
  Status status() const {
    return in_.bad() ? Status::IOError("read failed") : Status::OK();
  }

 private:
  /// Moves the partial line at the cursor to the chunk front, reads behind
  /// it up to a full chunk, and ends the whole lines at the last '\n'. A
  /// full chunk with no '\n' is left for Next() to carry.
  void Refill() {
    const size_t tail = end_ - pos_;
    std::memmove(chunk_.get(), chunk_.get() + pos_, tail);
    pos_ = 0;
    end_ = tail;
    lines_end_ = 0;
    const uint64_t room =
        std::min<uint64_t>(kScanChunkBytes - tail, limit_ - bytes_read_);
    if (room == 0) return;
    in_.read(chunk_.get() + tail, static_cast<std::streamsize>(room));
    end_ += static_cast<size_t>(in_.gcount());
    bytes_read_ += static_cast<uint64_t>(in_.gcount());
    // The tail holds no '\n', so only the new bytes are searched.
    for (size_t i = end_; i > tail; --i) {
      if (chunk_[i - 1] == '\n') {
        lines_end_ = i;
        break;
      }
    }
  }

  std::istream& in_;
  const uint64_t limit_;
  std::unique_ptr<char[]> chunk_;
  size_t pos_ = 0;        // Cursor.
  size_t lines_end_ = 0;  // Just past the chunk's last '\n', or pos_.
  size_t end_ = 0;        // End of the bytes read.
  size_t line_no_ = 0;
  uint64_t bytes_read_ = 0;
  std::string carry_;
};

/// Strict parse of one edge-list line. Returns OK with *skip=true for
/// blank/comment lines.
Status ParseEdgeListLine(std::string_view line, size_t line_no, uint64_t* u,
                         uint64_t* v, bool* skip) {
  *skip = false;
  if (line.empty() || line[0] == '#' || line[0] == '%') {
    *skip = true;
    return Status::OK();
  }
  std::string_view rest = line;
  // Strict per-token parse (digits only, whole token): istream's uint64
  // extraction would silently accept signs and hex/octal prefixes.
  if (!NextNumber(&rest, u) || !NextNumber(&rest, v)) {
    return Status::Corruption("edge list line " + std::to_string(line_no) +
                              ": expected 'u v', got '" + std::string(line) +
                              "'");
  }
  std::string_view extra;
  if (NextToken(&rest, &extra)) {
    return Status::Corruption("edge list line " + std::to_string(line_no) +
                              ": trailing '" + std::string(extra) +
                              "' after 'u v' in '" + std::string(line) + "'");
  }
  // Ids run below UINT32_MAX, so the vertex count (largest id + 1) fits
  // the uint32 Vertex type.
  if (*u >= UINT32_MAX || *v >= UINT32_MAX) {
    return Status::InvalidArgument(
        "vertex id " + std::to_string(std::max(*u, *v)) +
        " leaves no uint32 vertex count at line " + std::to_string(line_no));
  }
  return Status::OK();
}

// 19 decimal digits cannot overflow uint64.
constexpr size_t kInPlaceIdDigits = 19;

/// Parses the id at `p` a byte at a time: 1 to kInPlaceIdDigits digits
/// with a value below UINT32_MAX, else nullptr. Returns the byte past the
/// id and sets `*stop` to the non-digit there, which bounds the loop.
const char* ParseIdBytewise(const char* p, Vertex* id, char* stop) {
  uint64_t value = 0;
  size_t digits = 0;
  for (;; ++digits) {
    const unsigned digit =
        static_cast<unsigned char>(p[digits]) - unsigned{'0'};
    if (digit >= 10) break;
    if (digits == kInPlaceIdDigits) return nullptr;
    value = value * 10 + digit;
  }
  if (digits == 0 || value >= UINT32_MAX) return nullptr;
  *id = static_cast<Vertex>(value);
  *stop = p[digits];
  return p + digits;
}

/// ParseIdBytewise, with an id of up to 8 digits read as one little-endian
/// word: its first non-digit byte is the lowest one flagged outside
/// '0'..'9' (no borrow or carry reaches it from the digits below), and the
/// digits ahead of it are summed in three multiply-adds. Longer ids, and
/// big-endian builds, take the byte loop, kept out of line so that this
/// path inlines into the line parse (8% faster on the cit-Patents
/// stand-in). The word load reads up to 7 bytes past the id, so `p` must
/// lie in a LineScanner chunk ahead of a '\n'.
inline const char* ParseIdInPlace(const char* p, Vertex* id, char* stop) {
  if constexpr (std::endian::native == std::endian::little) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    const uint64_t digits = word - 0x3030303030303030;
    const uint64_t non_digits =
        (digits | (digits + 0x7676767676767676)) & 0x8080808080808080;
    const int len = non_digits == 0 ? 8 : std::countr_zero(non_digits) / 8;
    if (len == 0) return nullptr;
    const char after = len < 8 ? static_cast<char>(word >> (8 * len)) : p[8];
    if (static_cast<unsigned char>(after) - unsigned{'0'} >= 10) {
      // The digits move to the top bytes behind leading zeros, so byte i
      // holds digit i of an 8-digit number; then pairs, fours, and eights
      // of digits are summed.
      uint64_t value = digits << (64 - 8 * len);
      value = (value * 10 + (value >> 8)) & 0x00FF00FF00FF00FF;
      value = (value * 100 + (value >> 16)) & 0x0000FFFF0000FFFF;
      *id = static_cast<Vertex>(value * 10000 + (value >> 32));
      *stop = after;
      return p + len;
    }
  }
  return ParseIdBytewise(p, id, stop);
}

/// Parses the line at `p` in place when it has the common shape
/// `digits [ \t]+ digits [ \t\r]* \n` and returns the byte after its
/// '\n'; nullptr for any other line, which ParseEdgeListLine then judges.
/// A "u v\n" line is judged from the two id words and the byte after the
/// separator; every byte loop stops at a '\n', so a '\n' ahead is the
/// only bound.
inline const char* ParseEdgeLineInPlace(const char* p, Vertex* u, Vertex* v) {
  char stop = 0;
  p = ParseIdInPlace(p, u, &stop);
  if (p == nullptr || (stop != ' ' && stop != '\t')) return nullptr;
  do ++p; while (*p == ' ' || *p == '\t');
  p = ParseIdInPlace(p, v, &stop);
  if (p == nullptr) return nullptr;
  if (stop == '\n') return p + 1;
  while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
  return *p == '\n' ? p + 1 : nullptr;
}

/// The status of edge-list line `line_no`, whose vertex id `id` implies
/// more vertices than `bytes` of input may (the size rule in graph_io.h).
/// `source` names the file; empty for a bare stream.
Status TooManyVertices(const std::string& source, size_t line_no, uint64_t id,
                       uint64_t bytes) {
  return Status::ResourceExhausted(
      (source.empty() ? "" : source + ": ") + "edge list line " +
      std::to_string(line_no) + ": vertex id " + std::to_string(id) +
      " implies " + std::to_string(id + 1) + " vertices, more than the " +
      std::to_string(IdLimit(bytes)) + " that " + std::to_string(bytes) +
      " bytes of input allow");
}

/// Reads the edge lines of a stream one at a time, in order. A plain
/// "u v" line is parsed in place in its chunk, with no Status made; any
/// other line goes whole to the strict tokenizer, which alone decides its
/// verdict and error. A line naming an id that `input_bytes` do not allow
/// (kUnsized allows any) is rejected by the size rule before any caller
/// sizes a row from it. Every edge-list read goes through this one reader,
/// so every path accepts and rejects the same bytes with the same errors.
/// It reads at most `limit` bytes of `in` (a range of a file).
class EdgeReader {
 public:
  EdgeReader(std::istream& in, uint64_t input_bytes, const std::string& source,
             uint64_t limit = kUnsized)
      : lines_(in, limit),
        input_bytes_(input_bytes),
        id_limit_(input_bytes == kUnsized ? UINT64_MAX : IdLimit(input_bytes)),
        source_(source) {}

  /// Reads the next edge line's ids. False at the end of the input and at
  /// a rejected line; status() tells which.
  bool Next(Vertex* u, Vertex* v) {
    if (at_ != end_) {
      const char* const next = ParseEdgeLineInPlace(at_, u, v);
      if (next != nullptr && std::max(*u, *v) < id_limit_) {
        at_ = next;
        ++taken_;
        return true;
      }
    }
    return NextSlow(u, v);
  }

  /// 1-based number of the line Next last read.
  size_t line_no() const { return lines_.line_no() + taken_; }
  const Status& status() const { return status_; }
  uint64_t bytes_read() const { return lines_.bytes_read(); }

 private:
  /// Next for any line but an in-bounds plain one inside the current run:
  /// moves to the next run, reads a line longer than the chunk or
  /// unterminated, and judges lines through the tokenizer and the size rule.
  bool NextSlow(Vertex* u, Vertex* v) {
    for (;;) {
      std::string_view line;
      if (at_ == end_) {
        lines_.Skip(static_cast<size_t>(end_ - run_), taken_);
        taken_ = 0;
        const std::string_view run = lines_.Lines();
        run_ = at_ = end_ = run.data();
        if (run.empty()) {
          if (!lines_.Next(&line)) {
            status_ = lines_.status();
            return false;
          }
        } else {
          end_ = run.data() + run.size();  // Ends in '\n', bounding the parse.
        }
      }
      if (at_ != end_) {
        ++taken_;
        const char* const next = ParseEdgeLineInPlace(at_, u, v);
        if (next != nullptr) {
          at_ = next;
          return Bound(*u, *v);
        }
        const char* const newline = static_cast<const char*>(
            std::memchr(at_, '\n', static_cast<size_t>(end_ - at_)));
        line = std::string_view(at_, static_cast<size_t>(newline - at_));
        at_ = newline + 1;
      }
      uint64_t a = 0;
      uint64_t b = 0;
      bool skip = false;
      status_ = ParseEdgeListLine(line, line_no(), &a, &b, &skip);
      if (!status_.ok()) return false;
      if (skip) continue;
      *u = static_cast<Vertex>(a);
      *v = static_cast<Vertex>(b);
      return Bound(*u, *v);
    }
  }

  /// The size rule on an accepted line.
  bool Bound(Vertex u, Vertex v) {
    if (std::max(u, v) < id_limit_) return true;
    status_ = TooManyVertices(source_, line_no(), std::max(u, v), input_bytes_);
    return false;
  }

  LineScanner lines_;
  const uint64_t input_bytes_;
  const uint64_t id_limit_;
  const std::string& source_;
  const char* run_ = nullptr;  // The whole lines taken from the scanner.
  const char* at_ = nullptr;   // The next line of the run; end_ when none.
  const char* end_ = nullptr;  // Just past the run's last '\n'.
  size_t taken_ = 0;           // Lines of the run read so far.
  Status status_;
};

/// The bytes in `in` from its position on, which it keeps; kUnsized when
/// `in` cannot seek (a pipe). A failed seek back marks `in` bad, so the
/// read that follows fails as a read failure.
uint64_t InputBytes(std::istream& in) {
  std::streambuf& buf = *in.rdbuf();
  // Only the get area: a string buffer refuses a relative seek of both.
  const std::streampos here = buf.pubseekoff(0, std::ios::cur, std::ios::in);
  if (here == std::streampos(-1)) return kUnsized;
  const std::streampos end = buf.pubseekoff(0, std::ios::end, std::ios::in);
  if (end == std::streampos(-1)) return kUnsized;
  if (buf.pubseekpos(here, std::ios::in) != here) {
    in.setstate(std::ios::badbit);
    return 0;
  }
  return static_cast<uint64_t>(end - here);
}

/// The status of an edge list whose vertex count (largest id + 1) is too
/// large to allocate a CSR for.
Status CsrTooLarge(const std::string& source, size_t n) {
  return Status::ResourceExhausted(source + " implies " + std::to_string(n) +
                                   " vertices: cannot allocate its CSR");
}

/// The stream readers report a failed read without a name (a directory
/// opens, then fails its first read); a file reader names the file.
StatusOr<Digraph> NameReadFailure(StatusOr<Digraph> graph,
                                  const std::istream& in,
                                  const std::string& path) {
  if (!in.bad()) return graph;
  return Status::IOError("cannot read " + path);
}

/// The one-pass stream reader behind ReadEdgeList and ReadGraphFile's pipe
/// path; `source` names `in` in the size rule's error (empty for none).
StatusOr<Digraph> ReadEdgeListStream(std::istream& in,
                                     const std::string& source) {
  const uint64_t size = InputBytes(in);
  EdgeReader edges(in, size, source);
  GraphBuilder builder;
  size_t widest_line = 0;  // The line that named the largest id.
  Vertex u = 0;
  Vertex v = 0;
  while (edges.Next(&u, &v)) {
    if (std::max(u, v) >= builder.num_vertices()) widest_line = edges.line_no();
    builder.AddEdge(u, v);
  }
  REACH_RETURN_IF_ERROR(edges.status());
  const size_t n = builder.num_vertices();
  // A pipe has no size to hold each line to, but nothing vertex-sized is
  // allocated before Build, so its whole length bounds the count here.
  if (size == kUnsized && n > IdLimit(edges.bytes_read())) {
    return TooManyVertices(source, widest_line, n - 1, edges.bytes_read());
  }
  try {
    return builder.Build();
  } catch (const std::bad_alloc&) {
    return CsrTooLarge("edge list", n);
  }
}

/// Page-backed room for what a range stages (see StageRange). Fresh pages
/// become resident only as entries are written and go back to the kernel
/// on Release, so an area sized from the range's bound costs only the
/// entries it holds, and the heap sees only the final arrays. Inactive when
/// it cannot be mapped.
template <typename T>
class PageStaging {
 public:
  PageStaging() = default;
  explicit PageStaging(size_t capacity)
      : data_(reinterpret_cast<T*>(AllocatePages(capacity * sizeof(T)))),
        capacity_(data_ == nullptr ? 0 : capacity) {}
  ~PageStaging() { Release(); }
  PageStaging(const PageStaging&) = delete;
  PageStaging& operator=(PageStaging&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(capacity_, other.capacity_);
    return *this;
  }

  bool active() const { return data_ != nullptr; }
  T* data() const { return data_; }

  void Release() {
    FreePages(reinterpret_cast<std::byte*>(data_), capacity_ * sizeof(T));
    data_ = nullptr;
    capacity_ = 0;
  }

 private:
  T* data_ = nullptr;
  size_t capacity_ = 0;
};

// Digraph::FromCsr gets one participant per this many edges, up to the
// read's thread count: each participant walks every edge, which pays only
// once the in-row fill is bound by cache misses. On a 4-vCPU VM, 4
// participants broke even with 1 near 6 * 10^5 edges and were 1.3x faster
// at 2 * 10^6.
constexpr size_t kEdgesPerReversePart = size_t{1} << 18;

// A file is cut into one range per thread, but into no more ranges than it
// holds this many bytes: below it, a range's own file handle, staging
// pages and helper wake-up cost more than the parse it takes over. On a
// 4-vCPU VM, prefixes of the cit-Patents stand-in read in 271 us as two
// 64 KiB ranges against 327 us as one, while four 32 KiB ranges gained
// nothing over two (medians of 300 reads).
constexpr uint64_t kMinRangeBytes = kScanChunkBytes;

/// One byte range of an edge-list file, [begin, end), each end just past a
/// '\n' or at the end of the file, parsed on its own file handle. It stages
/// the heads of its edge lines, and each row as its source first appears,
/// on fresh pages.
struct StagedRange {
  /// A row as the range met it: the source and the index in `heads` of the
  /// row's first head. A self-loop line opens a row but stages no head.
  struct Row {
    Vertex source;
    uint64_t start;
  };

  uint64_t begin = 0;
  uint64_t end = 0;
  PageStaging<Vertex> heads;
  PageStaging<Row> rows;
  size_t num_heads = 0;
  size_t num_rows = 0;
  size_t n = 0;  // Largest id named in the range, plus 1.
  // Every line read, with sources nondecreasing: the staging is complete.
  bool ordered = false;
  // Every row strictly ascending inside the range.
  bool canonical = false;
  // The first row's first head (UINT64_MAX when that row has none), and
  // the last row's last head plus 1 (0 when it has none): what a row that
  // spans a boundary is checked on.
  uint64_t first_row_head = UINT64_MAX;
  uint64_t last_row_floor = 0;
};

/// Parses `range` from `in`, positioned at its start, into its staging.
/// It stops at a source below the previous one, at a line the reader
/// rejects, and at a read that ends short of the range; the range is then
/// not `ordered`, and the file goes to the two-pass read, which reports
/// any error with its whole-file line number.
void StageRange(std::istream& in, uint64_t size, const std::string& path,
                StagedRange* range) {
  const uint64_t bytes = range->end - range->begin;
  // Every edge line takes at least 4 bytes ("0 1\n", or 3 unterminated at
  // the end of the file), so the range's size bounds its lines.
  const size_t lines_bound = static_cast<size_t>(bytes / 4 + 1);
  range->heads = PageStaging<Vertex>(lines_bound);
  range->rows = PageStaging<StagedRange::Row>(lines_bound);
  if (!range->heads.active() || !range->rows.active()) return;
  Vertex* const heads = range->heads.data();
  StagedRange::Row* const rows = range->rows.data();
  size_t num_heads = 0;
  size_t num_rows = 0;
  size_t n = 0;
  bool canonical = true;
  uint64_t row = UINT64_MAX;  // The current row's source; none yet.
  uint64_t row_floor = 0;     // The least head that keeps the row ascending.
  EdgeReader edges(in, size, path, bytes);
  Vertex u = 0;
  Vertex v = 0;
  while (edges.Next(&u, &v)) {
    // A self-loop line still grows the vertex space (GraphBuilder
    // semantics) and counts toward the order, but adds no edge.
    n = std::max<size_t>(n, size_t{std::max(u, v)} + 1);
    if (u != row) {
      if (u < row && num_rows != 0) return;  // A descent.
      rows[num_rows++] = {u, num_heads};
      row = u;
      row_floor = 0;
    }
    if (u != v) {
      canonical &= v >= row_floor;
      row_floor = uint64_t{v} + 1;
      heads[num_heads++] = v;
    }
  }
  if (!edges.status().ok() || edges.bytes_read() != bytes) return;
  range->num_heads = num_heads;
  range->num_rows = num_rows;
  range->n = n;
  range->ordered = true;
  range->canonical = canonical;
  if (num_rows != 0 && (num_rows > 1 ? rows[1].start : num_heads) != 0) {
    range->first_row_head = heads[0];
  }
  range->last_row_floor = row_floor;
}

/// The first line start at or after byte `cut` (0 < cut < size) of `in`:
/// `cut` itself when the byte before it is '\n', else just past the next
/// '\n', or `size` when none follows. False when `in` fails.
bool LineStartFrom(std::istream& in, uint64_t cut, uint64_t size,
                   uint64_t* start) {
  in.clear();
  in.seekg(static_cast<std::streamoff>(cut - 1));
  char block[4096];
  for (uint64_t at = cut - 1; at < size;) {
    in.read(block, static_cast<std::streamsize>(
                       std::min<uint64_t>(sizeof(block), size - at)));
    const size_t got = static_cast<size_t>(in.gcount());
    if (got == 0) break;  // The file shrank; its ranges will read short.
    if (const void* newline = std::memchr(block, '\n', got)) {
      *start = at + static_cast<uint64_t>(
                        static_cast<const char*>(newline) - block) + 1;
      return true;
    }
    at += got;
  }
  *start = size;
  return !in.bad();
}

/// The ranges of a `size`-byte file cut at `cuts` (ascending), each cut
/// moved on to the next line start; empty ranges are dropped. False when
/// `in` cannot be read.
bool CutIntoRanges(std::istream& in, uint64_t size,
                   const std::vector<uint64_t>& cuts,
                   std::vector<StagedRange>* ranges) {
  std::vector<uint64_t> bounds = {0};
  for (const uint64_t cut : cuts) {
    // A cut inside the previous range's last line would land on its end.
    if (cut <= bounds.back() || cut >= size) continue;
    uint64_t start = 0;
    if (!LineStartFrom(in, cut, size, &start)) return false;
    if (start < size) bounds.push_back(start);
  }
  bounds.push_back(size);
  *ranges = std::vector<StagedRange>(bounds.size() - 1);
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    (*ranges)[i].begin = bounds[i];
    (*ranges)[i].end = bounds[i + 1];
  }
  return true;
}

/// Whether the staged ranges, in file order, are each complete and keep
/// the sources nondecreasing across every boundary: then they hold the
/// whole CSR. Sets `*canonical` to whether every row, one that spans
/// ranges included, arrived strictly ascending.
bool RangesJoin(const std::vector<StagedRange>& ranges, bool* canonical) {
  *canonical = true;
  uint64_t row = 0;        // The last source so far.
  uint64_t row_floor = 0;  // Its last head plus 1, or 0 when it has none.
  for (const StagedRange& range : ranges) {
    if (!range.ordered) return false;
    *canonical &= range.canonical;
    if (range.num_rows == 0) continue;
    const Vertex first = range.rows.data()[0].source;
    const Vertex last = range.rows.data()[range.num_rows - 1].source;
    if (first < row) return false;
    // A row that spans the boundary goes on ascending from its floor (a
    // first range's row 0 has floor 0, which every head meets).
    if (first == row) *canonical &= range.first_row_head >= row_floor;
    // A range that is all one row and adds no head leaves the floor as is.
    if (last != row || range.last_row_floor != 0) {
      row_floor = range.last_row_floor;
    }
    row = last;
  }
  return true;
}

/// Sorts and dedups each row of the CSR `offsets` over `heads` in place,
/// compacting leftwards (the write cursor never passes a row's read
/// start), and returns the edge count left.
uint64_t CanonicalizeRows(size_t n, uint64_t* offsets, Vertex* heads) {
  uint64_t write = 0;
  uint64_t prev_end = 0;
  for (size_t v = 0; v < n; ++v) {
    const uint64_t begin = prev_end;
    const uint64_t end = offsets[v + 1];
    prev_end = end;
    if (!std::is_sorted(heads + begin, heads + end)) {
      std::sort(heads + begin, heads + end);
    }
    for (uint64_t i = begin; i < end; ++i) {
      if (i > begin && heads[i] == heads[i - 1]) continue;
      heads[write++] = heads[i];
    }
    offsets[v + 1] = write;
  }
  offsets[0] = 0;
  return write;
}

/// Copies the joined ranges into the CSR's rows, one range per
/// participant, and frees their staging. Each range writes its heads at
/// its offset among all heads, and the row starts of the ids after the
/// previous range's last source up to its own last source (the last range
/// up to `n`), so no two participants write the same entry.
void StitchRanges(std::vector<StagedRange>* ranges, size_t n, int threads,
                  CsrVector<uint64_t>* offsets, CsrVector<Vertex>* heads) {
  std::vector<uint64_t> base(ranges->size() + 1, 0);  // Heads ahead of each.
  std::vector<uint64_t> after(ranges->size(), 0);     // Ids it starts past.
  size_t last = 0;  // The last range that holds a row.
  for (size_t i = 0; i < ranges->size(); ++i) {
    const StagedRange& range = (*ranges)[i];
    base[i + 1] = base[i] + range.num_heads;
    if (i + 1 < ranges->size()) after[i + 1] = after[i];
    if (range.num_rows != 0) {
      last = i;
      if (i + 1 < ranges->size()) {
        after[i + 1] = range.rows.data()[range.num_rows - 1].source;
      }
    }
  }
  offsets->resize(n + 1);
  heads->resize(base.back());
  (*offsets)[0] = 0;
  ParallelChunks(0, ranges->size(), 1, threads, [&](const ChunkInfo& chunk) {
    const size_t i = chunk.index;
    StagedRange& range = (*ranges)[i];
    std::copy(range.heads.data(), range.heads.data() + range.num_heads,
              heads->data() + base[i]);
    uint64_t* const starts = offsets->data();
    uint64_t id = after[i] + 1;
    for (size_t r = 0; r < range.num_rows; ++r) {
      const StagedRange::Row row = range.rows.data()[r];
      for (; id <= row.source; ++id) starts[id] = base[i] + row.start;
    }
    if (i == last) {
      for (; id <= n; ++id) starts[id] = base[i + 1];
    }
    range.heads.Release();
    range.rows.Release();
  });
}

/// The two-pass read of a file whose edge lines are not in source order:
/// pass 1 counts each source's degree, pass 2 re-reads the file to fill
/// each row in place. Leaves the rows as the file lists them.
Status ReadTwoPasses(std::istream& in, const std::string& path, uint64_t size,
                     size_t* n, CsrVector<uint64_t>* offsets,
                     CsrVector<Vertex>* heads) {
  const auto rewind = [&] {
    in.clear();
    in.seekg(0);
    return in ? Status::OK() : Status::IOError("cannot rewind " + path);
  };
  std::vector<uint64_t> degree;  // degree[u+1] = raw out-degree of u.
  uint64_t raw_edges = 0;
  REACH_RETURN_IF_ERROR(rewind());
  {
    EdgeReader edges(in, size, path);
    Vertex u = 0;
    Vertex v = 0;
    while (edges.Next(&u, &v)) {
      *n = std::max<size_t>(*n, size_t{std::max(u, v)} + 1);
      if (u != v) {
        if (degree.size() < size_t{u} + 2) degree.resize(size_t{u} + 2, 0);
        ++degree[size_t{u} + 1];
        ++raw_edges;
      }
    }
    REACH_RETURN_IF_ERROR(edges.status());
  }
  degree.resize(*n + 1, 0);
  std::partial_sum(degree.begin(), degree.end(), degree.begin());
  offsets->assign(degree.begin(), degree.end());  // degree[] turns into
  heads->resize(raw_edges);                       // pass 2's row cursors.

  REACH_RETURN_IF_ERROR(rewind());
  // Pass 1 accepted every line and sized every row, so a bad line, an id
  // beyond the vertex count, or a row overrunning its size here means the
  // file changed between passes.
  const auto changed = [&](const std::string& what) {
    return Status::Corruption(path + " changed while being read: " + what);
  };
  EdgeReader edges(in, size, path);
  Vertex u = 0;
  Vertex v = 0;
  while (edges.Next(&u, &v)) {
    if (u >= *n || v >= *n) {
      return changed("vertex id " + std::to_string(std::max(u, v)) +
                     " appeared");
    }
    if (u == v) continue;
    if (degree[u] >= (*offsets)[size_t{u} + 1]) {
      return changed("row " + std::to_string(u) + " grew");
    }
    (*heads)[degree[u]++] = v;
  }
  if (edges.status().IsIOError()) return edges.status();
  if (!edges.status().ok()) return changed(edges.status().message());
  for (size_t w = 0; w < *n; ++w) {
    if (degree[w] != (*offsets)[w + 1]) {
      return changed("row " + std::to_string(w) + " shrank");
    }
  }
  return Status::OK();
}

/// The edge-list file reader behind ReadEdgeListFile and ReadGraphFile:
/// `in` is open on `path` at its start. The file is cut into ranges at
/// `cuts`, or when null into one range per thread but none shorter than
/// kMinRangeBytes; `threads` participants of the shared pool parse them.
StatusOr<Digraph> ReadEdgeListStreamed(std::istream& in,
                                       const std::string& path, int threads,
                                       const std::vector<uint64_t>* cuts,
                                       GraphReadStats* stats) {
  // Straight into CSR, with nothing edge-sized materialized besides the CSR
  // itself: the one-pass stream reader's Edge vector plus FromEdges' sort
  // peak at ~3x the final footprint, which is what caps loadable graph
  // size. Each range stages its heads, and each row as its source first
  // appears, on fresh pages. If every range keeps its sources in order and
  // each boundary keeps that order too, the ranges are the CSR: one
  // parallel copy stitches them together. Otherwise (a descent anywhere,
  // or a line the reader rejects) the staging is dropped and the file is
  // read again in two passes, the first counting degrees and the second
  // filling each row in place. Rows are then canonicalized (sorted,
  // deduped, self-loops dropped) in place, unless every row arrived
  // strictly ascending, so either way the result is byte-identical to
  // ReadEdgeList on the same bytes.
  const Timer timer;
  const uint64_t size = InputBytes(in);
  // Pass 2 needs a file that seeks: refuse a pipe before reading it.
  if (size == kUnsized) return Status::IOError("cannot rewind " + path);
  std::vector<uint64_t> even_cuts;
  if (cuts == nullptr) {
    const uint64_t count = std::clamp<uint64_t>(
        size / kMinRangeBytes, 1, static_cast<uint64_t>(threads));
    for (uint64_t i = 1; i < count; ++i) even_cuts.push_back(size * i / count);
    cuts = &even_cuts;
  }
  std::vector<StagedRange> ranges;
  if (!CutIntoRanges(in, size, *cuts, &ranges)) {
    return Status::IOError("cannot read " + path);
  }
  size_t n = 0;
  bool canonical = false;
  bool joined = false;
  double parsed_ms = 0;
  CsrVector<uint64_t> offsets;
  CsrVector<Vertex> heads;
  // A line can still imply a CSR larger than memory (the size rule allows
  // 4 vertices a byte): a failed sizing is reported, not thrown.
  try {
    ParallelChunks(0, ranges.size(), 1, threads, [&](const ChunkInfo& chunk) {
      StagedRange& range = ranges[chunk.index];
      if (chunk.index == 0) {
        in.clear();
        in.seekg(0);
        StageRange(in, size, path, &range);
        return;
      }
      std::ifstream own(path, std::ios::binary);
      own.seekg(static_cast<std::streamoff>(range.begin));
      if (own) StageRange(own, size, path, &range);
    });
    joined = RangesJoin(ranges, &canonical);
    if (joined) {
      for (const StagedRange& range : ranges) n = std::max(n, range.n);
    } else {
      ranges.clear();  // Frees the staging before the second read.
      REACH_RETURN_IF_ERROR(
          ReadTwoPasses(in, path, size, &n, &offsets, &heads));
    }
    parsed_ms = timer.ElapsedMillis();
    if (joined) StitchRanges(&ranges, n, threads, &offsets, &heads);
  } catch (const std::bad_alloc&) {
    return CsrTooLarge(path, n);
  }
  if (!joined || !canonical) {
    heads.resize(CanonicalizeRows(n, offsets.data(), heads.data()));
    heads.shrink_to_fit();
  }
  const double canonical_ms = timer.ElapsedMillis();

  const int reverse_threads = static_cast<int>(std::clamp<uint64_t>(
      heads.size() / kEdgesPerReversePart, 1, static_cast<uint64_t>(threads)));
  Digraph graph = Digraph::FromCsr(n, std::move(offsets), std::move(heads),
                                   reverse_threads);
  if (stats != nullptr) {
    stats->passes = joined ? 1 : 2;
    stats->ranges = joined ? static_cast<int>(ranges.size()) : 1;
    stats->canonical_input = joined && canonical;
    stats->parse_ms = parsed_ms;
    stats->canonicalize_ms = canonical_ms - parsed_ms;
    stats->reverse_csr_ms = timer.ElapsedMillis() - canonical_ms;
  }
  return graph;
}

}  // namespace

StatusOr<Digraph> ReadEdgeList(std::istream& in) {
  return ReadEdgeListStream(in, "");
}

StatusOr<Digraph> ReadEdgeListFile(const std::string& path,
                                   GraphReadStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  return NameReadFailure(
      ReadEdgeListStreamed(in, path, DefaultBuildThreads(), nullptr, stats),
      in, path);
}

namespace internal {

StatusOr<Digraph> ReadEdgeListFileCutAt(const std::string& path,
                                        const std::vector<uint64_t>& cuts,
                                        GraphReadStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  const int threads = static_cast<int>(cuts.size()) + 1;
  return NameReadFailure(ReadEdgeListStreamed(in, path, threads, &cuts, stats),
                         in, path);
}

}  // namespace internal

Status WriteEdgeList(const Digraph& g, std::ostream& out) {
  out << "# libreach edge list: " << g.num_vertices() << " vertices, "
      << g.num_edges() << " edges\n";
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (Vertex w : g.OutNeighbors(v)) out << v << ' ' << w << '\n';
  }
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

StatusOr<Digraph> ReadGra(std::istream& in) {
  LineScanner lines(in);
  std::string_view line;
  if (!lines.Next(&line)) {
    REACH_RETURN_IF_ERROR(lines.status());
    return Status::Corruption("empty .gra file");
  }
  // Some producers emit a name line before the count; accept both. A first
  // line that starts like a number is the count, anything else a name.
  std::string_view probe = line;
  std::string_view first;
  const bool named =
      !NextToken(&probe, &first) ||
      std::string_view("0123456789+-").find(first[0]) == std::string_view::npos;
  if (named && !lines.Next(&line)) {
    return Status::Corruption(".gra file missing vertex count");
  }
  uint64_t n = 0;
  if (!ParseSoleToken(line, &n)) {
    return Status::Corruption(".gra vertex count is not a number: '" +
                              std::string(line) + "'");
  }
  // The count is untrusted: ids are uint32, and it sizes nothing until the
  // adjacency lines that back it have been read (see below).
  if (n > static_cast<uint64_t>(UINT32_MAX) + 1) {
    return Status::Corruption(".gra vertex count " + std::to_string(n) +
                              " exceeds uint32 id space");
  }
  const size_t header_lines = lines.line_no();
  GraphBuilder builder;
  uint64_t rows = 0;
  while (lines.Next(&line)) {
    const size_t line_no = lines.line_no() - header_lines;
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::Corruption(".gra adjacency line " +
                                std::to_string(line_no) + " lacks ':'");
    }
    uint64_t v = 0;
    if (!ParseSoleToken(line.substr(0, colon), &v)) {
      return Status::Corruption(".gra bad vertex id at line " +
                                std::to_string(line_no));
    }
    if (v >= n) {
      return Status::Corruption(".gra vertex id out of range at line " +
                                std::to_string(line_no));
    }
    ++rows;
    std::string_view rest = line.substr(colon + 1);
    std::string_view token;
    while (NextToken(&rest, &token)) {
      if (token == "#") break;
      uint64_t w = 0;
      if (!ParseDecimalUint64(token, &w)) {
        return Status::Corruption(".gra bad neighbor '" + std::string(token) +
                                  "' at line " + std::to_string(line_no));
      }
      if (w >= n) {
        return Status::Corruption(".gra neighbor out of range at line " +
                                  std::to_string(line_no));
      }
      builder.AddEdge(static_cast<Vertex>(v), static_cast<Vertex>(w));
    }
  }
  REACH_RETURN_IF_ERROR(lines.status());
  // Every vertex has its adjacency line (WriteGra emits one per vertex), so
  // a count beyond the lines delivered is forged; refusing it here keeps
  // Build from allocating vertices the file never paid for.
  if (n > rows) {
    return Status::Corruption(".gra vertex count " + std::to_string(n) +
                              " exceeds the " + std::to_string(rows) +
                              " adjacency lines present");
  }
  builder.EnsureVertices(static_cast<size_t>(n));
  return builder.Build();
}

Status WriteGra(const Digraph& g, std::ostream& out) {
  out << "graph_for_greach\n" << g.num_vertices() << '\n';
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    out << v << ": ";
    for (Vertex w : g.OutNeighbors(v)) out << w << ' ';
    out << "#\n";
  }
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteBinary(const Digraph& g, std::ostream& out) {
  const uint64_t magic = kBinaryMagic;
  const uint64_t n = g.num_vertices();
  const uint64_t m = g.num_edges();
  // The binary format is defined only for loop-free simple digraphs (see
  // graph_io.h): ReadBinary rejects self-loop rows, so emitting one would
  // produce a file this library cannot load back. Validated before the
  // first write so a rejected graph leaves no partial file behind.
  for (Vertex v = 0; v < n; ++v) {
    for (const Vertex w : g.OutNeighbors(v)) {
      if (w == v) {
        return Status::InvalidArgument(
            "binary graph format does not support self-loops (vertex " +
            std::to_string(v) + ")");
      }
    }
  }
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  for (Vertex v = 0; v < n; ++v) {
    auto nbrs = g.OutNeighbors(v);
    const uint32_t deg = static_cast<uint32_t>(nbrs.size());
    out.write(reinterpret_cast<const char*>(&deg), sizeof(deg));
    out.write(reinterpret_cast<const char*>(nbrs.data()),
              static_cast<std::streamsize>(nbrs.size() * sizeof(Vertex)));
  }
  if (!out) return Status::IOError("binary write failed");
  return Status::OK();
}

StatusOr<Digraph> ReadBinary(std::istream& in) {
  uint64_t magic = 0;
  uint64_t n = 0;
  uint64_t m = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!in || magic != kBinaryMagic) {
    return Status::Corruption("bad binary graph magic");
  }
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&m), sizeof(m));
  if (!in) return Status::Corruption("truncated binary graph header");
  // The header is untrusted: every count is validated before it sizes an
  // allocation, so a corrupt or hostile file fails with Corruption instead
  // of an OOM. Vertex ids are dense uint32, and a simple digraph has at
  // most n*(n-1) edges.
  if (n > static_cast<uint64_t>(UINT32_MAX) + 1) {
    return Status::Corruption("binary graph vertex count " +
                              std::to_string(n) + " exceeds uint32 id space");
  }
  // n <= 2^32 was just checked, so n*(n-1) cannot overflow uint64.
  const uint64_t max_edges = n == 0 ? 0 : n * (n - 1);
  if (m > max_edges) {
    return Status::Corruption("binary graph edge count " + std::to_string(m) +
                              " impossible for " + std::to_string(n) +
                              " vertices");
  }
  // Single pass, straight into the forward CSR: rows arrive in ascending
  // source order and already canonical (strictly ascending, loop-free —
  // WriteBinary's contract, revalidated below), so each row is read
  // directly into its final position in `heads` and no intermediate Edge
  // vector — the old ~3x peak footprint — is ever materialized. Both
  // arrays grow amortized, capped by what the stream actually delivered:
  // a forged n or m cannot pre-allocate memory the rows never back.
  CsrVector<uint64_t> offsets;
  offsets.reserve(static_cast<size_t>(
      std::min<uint64_t>(n + 1, kBinaryOffsetSliceEntries)));
  offsets.push_back(0);
  CsrVector<Vertex> heads;
  heads.reserve(static_cast<size_t>(
      std::min<uint64_t>(m, kBinaryRowSliceEntries)));
  uint64_t filled = 0;
  for (uint64_t v = 0; v < n; ++v) {
    uint32_t deg = 0;
    in.read(reinterpret_cast<char*>(&deg), sizeof(deg));
    if (!in) return Status::Corruption("truncated binary graph row");
    // A simple-digraph row has at most n-1 distinct non-self neighbors,
    // and the rows together cannot exceed the header's edge count. Both
    // checks run before any deg-sized work.
    if (deg >= n) {
      return Status::Corruption("binary graph row " + std::to_string(v) +
                                " degree " + std::to_string(deg) +
                                " impossible for " + std::to_string(n) +
                                " vertices");
    }
    if (deg > m - filled) {
      return Status::Corruption("binary graph rows exceed header edge count " +
                                std::to_string(m));
    }
    // Bounded increments: a truncated file wastes at most one slice of
    // allocation before the read failure surfaces. Validation runs over
    // the just-read range in place.
    int64_t prev = -1;
    for (size_t remaining = deg; remaining > 0;) {
      const size_t chunk = std::min(remaining, kBinaryRowSliceEntries);
      heads.resize(static_cast<size_t>(filled) + chunk);
      in.read(reinterpret_cast<char*>(heads.data() + filled),
              static_cast<std::streamsize>(chunk * sizeof(Vertex)));
      if (!in) return Status::Corruption("truncated binary graph row data");
      for (size_t i = 0; i < chunk; ++i) {
        const Vertex w = heads[static_cast<size_t>(filled) + i];
        if (w >= n) return Status::Corruption("binary graph neighbor range");
        if (static_cast<int64_t>(w) <= prev) {
          return Status::Corruption("binary graph row " + std::to_string(v) +
                                    " neighbors not strictly ascending");
        }
        if (w == v) {
          return Status::Corruption("binary graph row " + std::to_string(v) +
                                    " contains a self-loop");
        }
        prev = static_cast<int64_t>(w);
      }
      filled += chunk;
      remaining -= chunk;
    }
    offsets.push_back(filled);
  }
  if (filled != m) {
    return Status::Corruption("binary graph edge count mismatch");
  }
  // WriteBinary emits nothing after the last row; anything further is not a
  // graph this reader produced.
  if (in.peek() != std::istream::traits_type::eof()) {
    return Status::Corruption("binary graph has trailing bytes after rows");
  }
  heads.shrink_to_fit();
  return Digraph::FromCsr(static_cast<size_t>(n), std::move(offsets),
                          std::move(heads));
}

StatusOr<Digraph> ReadGraphFile(const std::string& path,
                                GraphReadStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  const auto read = [&] {
    if (HasSuffix(path, ".gra")) return ReadGra(in);
    if (HasSuffix(path, ".bin")) return ReadBinary(in);
    // Edge lists take the bounded-memory streamed reader; a pipe cannot be
    // rewound for a second pass, so it goes to the one-pass stream reader.
    if (in.rdbuf()->pubseekoff(0, std::ios::cur) == std::streampos(-1)) {
      return ReadEdgeListStream(in, path);
    }
    return ReadEdgeListStreamed(in, path, DefaultBuildThreads(), nullptr,
                                stats);
  };
  return NameReadFailure(read(), in, path);
}

Status WriteGraphFile(const Digraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  if (HasSuffix(path, ".gra")) return WriteGra(g, out);
  if (HasSuffix(path, ".bin")) return WriteBinary(g, out);
  return WriteEdgeList(g, out);
}

}  // namespace reach
