// Always-on invariant checking.
//
// The simulator and register implementations assert paper-level invariants
// (e.g. Observation 24: distinct writes have distinct timestamps) in all
// build types: a reproduction that silently violates an invariant in
// Release mode is worthless.  `RLT_CHECK` therefore never compiles out.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rlt::util {

/// Thrown when a checked invariant fails.  Tests catch this to assert
/// that illegal usage is detected; everywhere else it is a hard bug.
class InvariantViolation : public std::logic_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::logic_error(what) {}
};

/// `file` relative to the source tree: the prefix this header's own path
/// has before "src/util/assert.hpp" is cut off, so a failure message (and
/// any stored record that carries it) names the same file in every
/// checkout and build directory.  Paths outside the tree are kept whole.
[[nodiscard]] inline std::string_view source_relative(
    std::string_view file) noexcept {
  constexpr std::string_view self = __FILE__;
  constexpr std::string_view tail = "src/util/assert.hpp";
  if (!self.ends_with(tail)) return file;
  const std::string_view root = self.substr(0, self.size() - tail.size());
  return file.starts_with(root) ? file.substr(root.size()) : file;
}

[[noreturn]] inline void invariant_failure(const char* expr, const char* file,
                                           int line, const std::string& msg) {
  std::ostringstream os;
  os << "invariant violated: " << expr << " at " << source_relative(file)
     << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw InvariantViolation(os.str());
}

}  // namespace rlt::util

// NOLINTBEGIN(cppcoreguidelines-macro-usage): assertion macros are the one
// place the Core Guidelines accept macros (capture of expression text,
// file and line requires the preprocessor).
#define RLT_CHECK(expr)                                                  \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::rlt::util::invariant_failure(#expr, __FILE__, __LINE__, "");     \
    }                                                                    \
  } while (false)

#define RLT_CHECK_MSG(expr, msg)                                         \
  do {                                                                   \
    if (!(expr)) {                                                       \
      std::ostringstream rlt_check_os;                                   \
      rlt_check_os << msg; /* NOLINT */                                  \
      ::rlt::util::invariant_failure(#expr, __FILE__, __LINE__,          \
                                     rlt_check_os.str());                \
    }                                                                    \
  } while (false)
// NOLINTEND(cppcoreguidelines-macro-usage)
