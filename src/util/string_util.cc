#include "util/string_util.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdint>
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

namespace {

// std::isspace's set in the C locale, tested inline instead of through a
// libc call per byte (every ParseDouble trims its input).
constexpr bool IsCSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');  // \t \n \v \f \r
}

}  // namespace

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && IsCSpace(s[b])) ++b;
  size_t e = s.size();
  while (e > b && IsCSpace(s[e - 1])) --e;
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

namespace {

constexpr std::string_view kXmlEntities[] = {"", "&amp;", "&lt;", "&gt;",
                                              "&quot;"};

// Index into kXmlEntities for each byte, 0 for bytes written as they are.
// Indexed by the byte as an unsigned char: bytes >= 0x80 occur in UTF-8
// text and must land in the upper half, never at a negative index.
constexpr std::array<uint8_t, 256> kXmlEntityOf = [] {
  std::array<uint8_t, 256> table{};
  table['&'] = 1;
  table['<'] = 2;
  table['>'] = 3;
  table['"'] = 4;
  return table;
}();

}  // namespace

void AppendXmlEscaped(std::string& out, std::string_view s) {
  // One table lookup per byte; each run of bytes between escapable ones
  // is bulk-appended, so escape-free strings (the overwhelming case in the
  // serializer) reduce to a single append.
  const char* run = s.data();
  const char* const end = run + s.size();
  for (const char* p = run; p != end; ++p) {
    const uint8_t entity = kXmlEntityOf[static_cast<unsigned char>(*p)];
    if (entity == 0) continue;
    out.append(run, static_cast<size_t>(p - run));
    out.append(kXmlEntities[entity]);
    run = p + 1;
  }
  out.append(run, static_cast<size_t>(end - run));
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
