#ifndef XMARK_UTIL_STRING_UTIL_H_
#define XMARK_UTIL_STRING_UTIL_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace xmark {

/// Heterogeneous hash for string-keyed unordered containers: lets find()
/// and equal_range() take a std::string_view without materializing a
/// std::string per probe. Pair with std::equal_to<> as the key-equal.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
  size_t operator()(const std::string& s) const {
    return std::hash<std::string_view>{}(s);
  }
  size_t operator()(const char* s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Parses a decimal double from the (trimmed) string; returns nullopt when
/// the string is not entirely numeric. XMark stores all character data as
/// strings, so queries cast at runtime (paper §6.3).
std::optional<double> ParseDouble(std::string_view s);

/// Parses a decimal integer, rejecting trailing garbage.
std::optional<int64_t> ParseInt(std::string_view s);

/// Removes leading/trailing whitespace: the bytes std::isspace accepts in
/// the C locale (' ', '\t', '\n', '\v', '\f', '\r').
std::string_view TrimWhitespace(std::string_view s);

/// Case-sensitive substring test (XQuery fn:contains over ASCII).
bool Contains(std::string_view haystack, std::string_view needle);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Splits on a single character; keeps empty pieces.
std::vector<std::string_view> SplitString(std::string_view s, char sep);

/// Joins pieces with `sep`.
std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep);

/// Formats a double the way our serializer emits atomic values: integers
/// without a decimal point, otherwise shortest round-trip-ish fixed form.
std::string FormatDouble(double v);

/// Escapes '&', '<', '>', '"' for XML output.
void AppendXmlEscaped(std::string& out, std::string_view s);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace xmark

#endif  // XMARK_UTIL_STRING_UTIL_H_
