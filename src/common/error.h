// Error handling for regla: checked preconditions that throw, so library
// misuse is reported to the caller instead of aborting the host process.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace regla {

/// Thrown when a checked precondition or internal invariant fails.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
// The failure paths of REGLA_CHECK / REGLA_CHECK_MSG live out of line and
// cold, so a check compiles to a compare and a never-taken call: accessors
// that carry one (SharedArray::ld/st, RegTile::get/set) stay small inside
// kernel loops, and no message is formatted unless the check fails.
[[noreturn, gnu::cold, gnu::noinline]] inline void raise(
    const char* cond, const char* file, int line, const std::string& msg) {
  std::ostringstream os;
  os << file << ":" << line << ": check failed: " << cond;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

[[noreturn, gnu::cold, gnu::noinline]] inline void raise(const char* cond,
                                                         const char* file,
                                                         int line) {
  raise(cond, file, line, std::string());
}

/// `fmt(os)` streams the check's message.
template <typename Fmt>
[[noreturn, gnu::cold, gnu::noinline]] void raise_fmt(const char* cond,
                                                      const char* file,
                                                      int line,
                                                      const Fmt& fmt) {
  std::ostringstream os;
  fmt(os);
  raise(cond, file, line, os.str());
}
}  // namespace detail

}  // namespace regla

/// Precondition check: always on, in hot loops too (the failure path is cold
/// and out of line).
#define REGLA_CHECK(cond)                                           \
  do {                                                              \
    if (!(cond)) ::regla::detail::raise(#cond, __FILE__, __LINE__); \
  } while (0)

#define REGLA_CHECK_MSG(cond, msg)                             \
  do {                                                         \
    if (!(cond))                                               \
      ::regla::detail::raise_fmt(                              \
          #cond, __FILE__, __LINE__,                           \
          [&](std::ostream& regla_os_) { regla_os_ << msg; }); \
  } while (0)
