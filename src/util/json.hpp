#pragma once

#include <cstdio>
#include <string>
#include <string_view>

/// \file json.hpp
/// The one JSON string escaper of the metrics registry and the lint/verify
/// reports.

namespace rtec {

/// Appends `s` to `out` as a quoted JSON string: quote, backslash,
/// newline, tab and carriage return get their short escapes, other control
/// bytes a four-digit hex escape.
inline void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

}  // namespace rtec
