// A std::istream over an in-memory byte span, without copying it — the
// bridge that lets the stream-based server snapshot framing reader
// (ReadSnapshotHeader, which validates before every allocation) run over
// a mapped snapshot. A read past the span fails the stream rather than
// touching bytes past the mapping.
//
// Read-only and seekable (tellg/seekg work; callers use tellg to learn how
// many bytes a sub-parser consumed). The span must outlive the stream.

#ifndef REACH_UTIL_SPAN_STREAM_H_
#define REACH_UTIL_SPAN_STREAM_H_

#include <cstddef>
#include <istream>
#include <span>
#include <streambuf>

namespace reach {

/// streambuf whose get area is the caller's span. No putback past the
/// span start, no put area at all.
class SpanStreamBuf : public std::streambuf {
 public:
  explicit SpanStreamBuf(std::span<const std::byte> bytes) {
    // std::streambuf's get-area pointers are non-const by interface; the
    // buffer is never written because no put area is ever set up.
    char* base =
        const_cast<char*>(reinterpret_cast<const char*>(bytes.data()));
    setg(base, base, base + bytes.size());
  }

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override {
    if ((which & std::ios_base::in) == 0) return pos_type(off_type(-1));
    const off_type size = egptr() - eback();
    off_type target = 0;
    switch (dir) {
      case std::ios_base::beg:
        target = off;
        break;
      case std::ios_base::cur:
        target = (gptr() - eback()) + off;
        break;
      case std::ios_base::end:
        target = size + off;
        break;
      default:
        return pos_type(off_type(-1));
    }
    if (target < 0 || target > size) return pos_type(off_type(-1));
    setg(eback(), eback() + target, egptr());
    return pos_type(target);
  }

  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return seekoff(off_type(pos), std::ios_base::beg, which);
  }
};

/// istream façade over SpanStreamBuf. The usual base-before-member dance:
/// the buf lives in a base so it is constructed before std::istream.
class SpanIStream : private SpanStreamBuf, public std::istream {
 public:
  explicit SpanIStream(std::span<const std::byte> bytes)
      : SpanStreamBuf(bytes), std::istream(this) {}
};

}  // namespace reach

#endif  // REACH_UTIL_SPAN_STREAM_H_
