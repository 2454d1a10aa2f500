// The one JSON string escaper of the simulator: perf reports, scenario
// metrics, Chrome traces and interval metrics all escape through it, so a
// name containing a quote, backslash or control character serialises to
// the same valid bytes everywhere.
#pragma once

#include <string>
#include <string_view>

namespace mot3d {

/// Body of a JSON string literal (no surrounding quotes): `"` and `\`
/// backslash-escaped, \n and \t by name, every other control character
/// as \u00XX.
inline std::string json_escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace mot3d
