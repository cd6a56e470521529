#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace xmark {

std::optional<double> ParseDouble(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return std::nullopt;
  double out = 0.0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return out;
}

std::optional<int64_t> ParseInt(std::string_view s) {
  s = TrimWhitespace(s);
  if (s.empty()) return std::nullopt;
  int64_t out = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return out;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::vector<std::string_view> SplitString(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string FormatDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "INF" : "-INF";
  // to_chars prints exactly what printf's "%lld" and "%.12g" print in the
  // C locale, without the format-string interpretation.
  char buf[64];
  const std::to_chars_result r =
      v == std::floor(v) && std::fabs(v) < 1e15
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v))
          : std::to_chars(buf, buf + sizeof(buf), v,
                          std::chars_format::general, 12);
  return std::string(buf, r.ptr);
}

void AppendXmlEscaped(std::string& out, std::string_view s) {
  // Span-based: memchr-backed find_first_of locates the next escapable
  // byte and everything before it is bulk-copied in one append, instead
  // of a branch + push_back per character. Escape-free strings (the
  // overwhelming case in the serializer) reduce to a single append.
  constexpr std::string_view kEscapable("&<>\"");
  size_t pos = 0;
  while (pos < s.size()) {
    const size_t hit = s.find_first_of(kEscapable, pos);
    if (hit == std::string_view::npos) break;
    out.append(s, pos, hit - pos);
    switch (s[hit]) {
      case '&':
        out.append("&amp;");
        break;
      case '<':
        out.append("&lt;");
        break;
      case '>':
        out.append("&gt;");
        break;
      default:  // '"'
        out.append("&quot;");
        break;
    }
    pos = hit + 1;
  }
  out.append(s, pos, std::string_view::npos);
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(static_cast<size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

}  // namespace xmark
