#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>

/// \file common.hpp
/// Shared console-table formatting for the experiment harnesses. Every
/// bench binary prints the rows/series of one paper claim (see DESIGN.md
/// §3); the machine-readable ones also write BenchJson (bench/sweep.hpp).

namespace rtec::bench {

inline void title(const char* experiment, const char* what) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", experiment, what);
  std::printf("================================================================\n");
}

inline void note(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::printf("  ");
  std::vprintf(fmt, args);
  std::printf("\n");
  va_end(args);
}

inline void rule() {
  std::printf("  ----------------------------------------------------------------------\n");
}

}  // namespace rtec::bench
