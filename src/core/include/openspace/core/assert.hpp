// OPENSPACE_ASSERT — the library's contract-checking macro.
//
// Preconditions on hot paths (snapshot propagation, routing inner loops)
// are too expensive to validate with exceptions in Release builds but too
// valuable to drop entirely. OPENSPACE_ASSERT checks in every build where
// NDEBUG is unset — Debug, and the default build (`cmake -B build -S .`
// with no CMAKE_BUILD_TYPE: RelWithDebInfo with -DNDEBUG removed by the
// top-level CMakeLists.txt) — and compiles to nothing where NDEBUG is set:
// Release, and an explicit -DCMAKE_BUILD_TYPE=RelWithDebInfo, whose stock
// CMake flags carry it. The condition expression stays syntactically
// alive either way, so it cannot rot.
//
// Use OPENSPACE_ASSERT for internal invariants and programmer errors.
// Keep throwing typed errors (InvalidArgumentError, NotFoundError) for
// conditions a caller can plausibly trigger with bad input.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace openspace::detail {

[[noreturn]] inline void assertFail(const char* expr, const char* file,
                                    int line, const char* msg) noexcept {
  std::fprintf(stderr, "%s:%d: OPENSPACE_ASSERT(%s) failed%s%s\n", file, line,
               expr, (msg != nullptr && msg[0] != '\0') ? ": " : "",
               (msg != nullptr) ? msg : "");
  std::abort();
}

}  // namespace openspace::detail

#ifdef NDEBUG
// Release: compiled out, but the expression stays parsed so it cannot rot.
#define OPENSPACE_ASSERT(expr, ...) \
  static_cast<void>(sizeof(static_cast<bool>(expr) ? 1 : 0))
#else
#define OPENSPACE_ASSERT(expr, ...)                                      \
  (static_cast<bool>(expr)                                               \
       ? static_cast<void>(0)                                            \
       : ::openspace::detail::assertFail(#expr, __FILE__, __LINE__,      \
                                         "" __VA_ARGS__))
#endif
