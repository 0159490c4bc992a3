#include "util/strict_parse.h"

namespace reach {

bool ParseDecimalUint64(std::string_view text, uint64_t* out) {
  // The whole text must be one digit run; empty input fails.
  uint64_t value = 0;
  if (text.empty() || ParseDecimalPrefix(text, &value) != text.size()) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace reach
