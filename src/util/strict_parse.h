// Strict decimal parsing for untrusted tokens: command-line flags, protocol
// lines, and graph files. strtoull alone is too lax: it skips leading
// whitespace, negates signed input, accepts hex/octal prefixes, and
// saturates on overflow — all of which turn a typo into a silently
// different number.

#ifndef REACH_UTIL_STRICT_PARSE_H_
#define REACH_UTIL_STRICT_PARSE_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace reach {

/// Parses the run of decimal digits that starts `text` and returns its
/// length; 0, without touching `*out`, when `text` does not start with a
/// digit or the run overflows uint64. std::from_chars matches this
/// contract exactly (no whitespace, sign, or base prefix; no allocation).
/// Inline because the graph readers call it once per token, parsing in
/// the same pass that finds the token's end.
inline size_t ParseDecimalPrefix(std::string_view text, uint64_t* out) {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out, 10);
  return ec == std::errc() ? static_cast<size_t>(ptr - text.data()) : 0;
}

/// Parses `text` as a base-10 unsigned integer: digits only (no sign,
/// whitespace, or base prefix), the whole string, no overflow. Returns
/// false without touching `*out` on any violation. Takes a string_view so
/// hot parse paths (the server's per-line BATCH tokens) never have to
/// materialize a std::string per token.
bool ParseDecimalUint64(std::string_view text, uint64_t* out);

}  // namespace reach

#endif  // REACH_UTIL_STRICT_PARSE_H_
