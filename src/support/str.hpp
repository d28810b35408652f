// Small string-formatting helpers (GCC 12 lacks <format>).
#pragma once

#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/common.hpp"

namespace gp {

inline std::string hex(u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Sixteen zero-padded hex digits, no 0x prefix: the filename-safe form of
/// store keys, job ids and result digests.
inline std::string hex16(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

inline std::string hex_byte(u8 v) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "%02x", v);
  return buf;
}

template <typename T>
std::string to_str(const T& v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Join a range of strings with a separator.
inline std::string join(const std::vector<std::string>& parts,
                        const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

inline bool starts_with(std::string_view s, std::string_view prefix) {
  return s.starts_with(prefix);
}

/// Escape a string for embedding in a JSON string literal: quotes and
/// backslashes are backslash-escaped, control characters become \n/\r/\t
/// or \u00XX. Shared by the campaign summary, the metrics registry and the
/// trace exporter — program/obfuscation/goal names are attacker-ish inputs
/// (a goal named `pwn"]}` must not break the summary).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace gp
