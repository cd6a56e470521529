#ifndef XMARK_XML_BYTE_CLASS_H_
#define XMARK_XML_BYTE_CLASS_H_

// The one classification of input bytes that the SAX tokenizer and the
// chunked parse's split scan share: one table lookup per byte instead of
// a locale-aware <cctype> call. The classes are the C locale's: ASCII
// letters, '_' and ':' start a name; digits, '-' and '.' may follow; and
// the four XML whitespace bytes. Namespaces and non-ASCII names are out of
// scope (paper §4.4).

#include <array>
#include <cstddef>
#include <cstdint>

namespace xmark::xml {

inline constexpr uint8_t kNameStartByte = 1;
inline constexpr uint8_t kNameByte = 2;
inline constexpr uint8_t kSpaceByte = 4;

inline constexpr std::array<uint8_t, 256> kByteClass = [] {
  std::array<uint8_t, 256> table{};
  for (int c = 'a'; c <= 'z'; ++c) table[c] = kNameStartByte | kNameByte;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = kNameStartByte | kNameByte;
  table['_'] = table[':'] = kNameStartByte | kNameByte;
  for (int c = '0'; c <= '9'; ++c) table[c] = kNameByte;
  table['-'] = table['.'] = kNameByte;
  table[' '] = table['\t'] = table['\n'] = table['\r'] = kSpaceByte;
  return table;
}();

inline bool IsNameStartByte(char c) {
  return kByteClass[static_cast<uint8_t>(c)] & kNameStartByte;
}
inline bool IsNameByte(char c) {
  return kByteClass[static_cast<uint8_t>(c)] & kNameByte;
}
inline bool IsSpaceByte(char c) {
  return kByteClass[static_cast<uint8_t>(c)] & kSpaceByte;
}

/// One past the name bytes of `in` from `p` on.
inline size_t ScanName(const char* in, size_t p, size_t size) {
  while (p < size && IsNameByte(in[p])) ++p;
  return p;
}

}  // namespace xmark::xml

#endif  // XMARK_XML_BYTE_CLASS_H_
