#include "src/base/json.h"

#include <charconv>
#include <limits>
#include <vector>

namespace artemis {
namespace {

bool NeedsEscape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void AppendEscaped(std::string& out, std::string_view s) {
  std::size_t clean = 0;
  while (clean < s.size() && !NeedsEscape(s[clean])) {
    ++clean;
  }
  out.append(s.data(), clean);
  for (std::size_t i = clean; i < s.size(); ++i) {
    const char c = s[i];
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          const char escaped[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf], kHex[c & 0xf]};
          out.append(escaped, sizeof(escaped));
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(out, s);
  return out;
}

void AppendJsonString(std::string& out, std::string_view s) {
  out += '"';
  AppendEscaped(out, s);
  out += '"';
}

void AppendUint(std::string& out, std::uint64_t v) {
  char buf[std::numeric_limits<std::uint64_t>::digits10 + 1];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void AppendInt(std::string& out, std::int64_t v) {
  char buf[std::numeric_limits<std::int64_t>::digits10 + 2];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void AppendFixed(std::string& out, double v, int digits) {
  char buf[64];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, digits);
  if (r.ec == std::errc()) {
    out.append(buf, r.ptr);
    return;
  }
  // Large magnitudes: up to 309 integer digits, a sign and a point.
  std::vector<char> wide(std::numeric_limits<double>::max_exponent10 + 3 +
                         static_cast<std::size_t>(digits));
  char* end =
      std::to_chars(wide.data(), wide.data() + wide.size(), v, std::chars_format::fixed, digits)
          .ptr;
  out.append(wide.data(), end);
}

}  // namespace artemis
