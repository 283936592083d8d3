// Appending integers to strings without a stream: the hot string
// builders (scenario keys, store records) run once per scenario on the
// sweep's fold thread, where an std::ostringstream per call costs more
// than the text it makes.
#pragma once

#include <charconv>
#include <string>

namespace rlt::util {

/// Appends the decimal spelling of `v` (what `os << v` writes for an
/// integer under the default locale).
template <class Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

}  // namespace rlt::util
