#include "xml/sax_parser.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/string_util.h"
#include "xml/byte_class.h"

namespace xmark::xml {
namespace {

// Maximum digit counts that can still encode a code point <= 0x10ffff;
// anything longer is an overlong reference and rejected outright (it could
// also silently overflow a lazy parser).
constexpr size_t kMaxDecDigits = 7;  // "1114111"
constexpr size_t kMaxHexDigits = 6;  // "10ffff"

// Appends `raw` to `out` with &amp; &lt; &gt; &quot; &apos; and &#N; /
// &#xN; references decoded. Returns false on a malformed reference.
bool AppendDecoded(std::string_view raw, std::string& out) {
  size_t i = 0;
  while (i < raw.size()) {
    if (raw[i] != '&') {
      // Bulk-copy the run up to the next reference instead of pushing one
      // byte at a time.
      const void* amp = std::memchr(raw.data() + i, '&', raw.size() - i);
      const size_t end =
          amp == nullptr
              ? raw.size()
              : static_cast<size_t>(static_cast<const char*>(amp) -
                                    raw.data());
      out.append(raw.data() + i, end - i);
      i = end;
      continue;
    }
    const size_t semi = raw.find(';', i + 1);
    if (semi == std::string_view::npos) return false;
    const std::string_view ent = raw.substr(i + 1, semi - i - 1);
    if (ent == "amp") {
      out.push_back('&');
    } else if (ent == "lt") {
      out.push_back('<');
    } else if (ent == "gt") {
      out.push_back('>');
    } else if (ent == "quot") {
      out.push_back('"');
    } else if (ent == "apos") {
      out.push_back('\'');
    } else if (!ent.empty() && ent[0] == '#') {
      // Numeric character reference, parsed in place with from_chars — no
      // temporary string, and overlong digit runs are rejected rather than
      // clamped. XML allows leading zeros, so strip them (keeping one
      // digit) before applying the length bound.
      const bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
      std::string_view digits = ent.substr(hex ? 2 : 1);
      if (digits.empty()) return false;
      size_t zeros = 0;
      while (zeros + 1 < digits.size() && digits[zeros] == '0') ++zeros;
      digits.remove_prefix(zeros);
      if (digits.size() > (hex ? kMaxHexDigits : kMaxDecDigits)) {
        return false;
      }
      long code = 0;
      const auto [ptr, ec] = std::from_chars(
          digits.data(), digits.data() + digits.size(), code, hex ? 16 : 10);
      if (ec != std::errc() || ptr != digits.data() + digits.size()) {
        return false;
      }
      if (code <= 0 || code > 0x10ffff) return false;
      // Minimal UTF-8 encoder; the benchmark document is 7-bit ASCII
      // (paper §4.4) but we accept the full range.
      if (code < 0x80) {
        out.push_back(static_cast<char>(code));
      } else if (code < 0x800) {
        out.push_back(static_cast<char>(0xc0 | (code >> 6)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
      } else if (code < 0x10000) {
        out.push_back(static_cast<char>(0xe0 | (code >> 12)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
      } else {
        out.push_back(static_cast<char>(0xf0 | (code >> 18)));
        out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
        out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
        out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
      }
    } else {
      return false;
    }
    i = semi + 1;
  }
  return true;
}

// A parse error at byte `at` of `input`, named by its line: the line count
// is paid only on failure.
Status Fail(std::string_view input, size_t at, std::string_view msg) {
  const auto newlines = std::count(input.begin(), input.begin() + at, '\n');
  return Status::ParseError(StringPrintf("line %ld: %.*s",
                                         static_cast<long>(newlines) + 1,
                                         static_cast<int>(msg.size()),
                                         msg.data()));
}

size_t SkipSpace(const char* in, size_t p, size_t size) {
  while (p < size && IsSpaceByte(in[p])) ++p;
  return p;
}

// An attribute value decoded into the scratch buffer: its view is made
// once the tag's last value is in, as the buffer may move before.
struct DecodedSpan {
  size_t attr;
  size_t offset;
};

}  // namespace

Status SaxParser::ParseFile(const std::string& path, SaxHandler* handler) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  return Parse(content, handler);
}

Status SaxParser::Parse(std::string_view input, SaxHandler* handler) {
  return ParseImpl(input, handler, SaxFragment{});
}

Status SaxParser::ParseFragment(std::string_view input, SaxHandler* handler,
                                const SaxFragment& fragment) {
  return ParseImpl(input, handler, fragment);
}

// Each byte costs one table lookup or one memchr step: character data,
// attribute values and the bodies of comments, CDATA sections and PIs are
// found with std::string_view::find (memchr underneath), names and
// whitespace by kByteClass. Open elements, attribute names and values
// without a reference are views into the input (or into the fragment's
// open tags); only text and values with '&' are copied, decoded into one
// scratch buffer.
Status SaxParser::ParseImpl(std::string_view input, SaxHandler* handler,
                            const SaxFragment& fragment) {
  const char* const in = input.data();
  const size_t size = input.size();
  std::vector<std::string_view> open(fragment.open_tags.begin(),
                                     fragment.open_tags.end());
  // A fragment with open tags starts inside its document element.
  bool root_opened = !open.empty();
  // Entity-decoded character data, or the current tag's decoded attribute
  // values; each event's views into it end with its callback.
  std::string decode_buf;
  std::vector<SaxAttribute> attrs;
  std::vector<DecodedSpan> decoded;

  size_t pos = 0;
  while (pos < size) {
    if (in[pos] != '<') {
      // Character data run up to the next tag.
      const size_t end = std::min(input.find('<', pos), size);
      const std::string_view raw(in + pos, end - pos);
      if (open.empty()) {
        if (!TrimWhitespace(raw).empty()) {
          return Fail(input, end,
                      "character data outside the document element");
        }
      } else {
        std::string_view text = raw;
        if (raw.find('&') != std::string_view::npos) {
          decode_buf.clear();
          if (!AppendDecoded(raw, decode_buf)) {
            return Fail(input, end, "malformed entity reference");
          }
          text = decode_buf;
        }
        XMARK_RETURN_IF_ERROR(handler->OnCharacters(text));
      }
      pos = end;
      continue;
    }

    // A tag of some form.
    if (pos + 1 >= size) return Fail(input, pos, "truncated tag");
    const char next = in[pos + 1];

    if (next == '!') {
      if (input.compare(pos, 4, "<!--") == 0) {
        const size_t end = input.find("-->", pos + 4);
        if (end == std::string_view::npos) {
          return Fail(input, pos, "unterminated comment");
        }
        XMARK_RETURN_IF_ERROR(
            handler->OnComment(input.substr(pos + 4, end - pos - 4)));
        pos = end + 3;
        continue;
      }
      if (input.compare(pos, 9, "<![CDATA[") == 0) {
        const size_t end = input.find("]]>", pos + 9);
        if (end == std::string_view::npos) {
          return Fail(input, pos, "unterminated CDATA");
        }
        if (open.empty()) {
          return Fail(input, pos, "CDATA outside document element");
        }
        XMARK_RETURN_IF_ERROR(
            handler->OnCharacters(input.substr(pos + 9, end - pos - 9)));
        pos = end + 3;
        continue;
      }
      if (input.compare(pos, 9, "<!DOCTYPE") == 0) {
        // Skip the doctype declaration, including an internal subset.
        size_t p = pos + 9;
        int depth = 0;
        for (; p < size; ++p) {
          if (in[p] == '[') ++depth;
          if (in[p] == ']') --depth;
          if (in[p] == '>' && depth <= 0) break;
        }
        if (p >= size) return Fail(input, size, "unterminated DOCTYPE");
        pos = p + 1;
        continue;
      }
      return Fail(input, pos, "unsupported markup declaration");
    }

    if (next == '?') {
      const size_t end = input.find("?>", pos + 2);
      if (end == std::string_view::npos) {
        return Fail(input, pos, "unterminated PI");
      }
      std::string_view body = input.substr(pos + 2, end - pos - 2);
      const size_t sp = body.find_first_of(" \t\r\n");
      std::string_view target = sp == std::string_view::npos
                                    ? body
                                    : body.substr(0, sp);
      std::string_view data =
          sp == std::string_view::npos
              ? std::string_view{}
              : TrimWhitespace(body.substr(sp + 1));
      if (target != "xml") {
        XMARK_RETURN_IF_ERROR(handler->OnProcessingInstruction(target, data));
      }
      pos = end + 2;
      continue;
    }

    if (next == '/') {
      // End tag.
      const size_t name_start = pos + 2;
      size_t p = ScanName(in, name_start, size);
      const std::string_view name(in + name_start, p - name_start);
      p = SkipSpace(in, p, size);
      if (p >= size || in[p] != '>') return Fail(input, p, "malformed end tag");
      if (open.empty() || open.back() != name) {
        return Fail(input, p,
                    "mismatched end tag </" + std::string(name) + ">");
      }
      open.pop_back();
      XMARK_RETURN_IF_ERROR(handler->OnEndElement(name));
      pos = p + 1;
      continue;
    }

    // Start tag (or empty-element tag).
    if (!IsNameStartByte(next)) return Fail(input, pos, "invalid tag");
    size_t p = ScanName(in, pos + 2, size);
    const std::string_view name(in + pos + 1, p - pos - 1);

    attrs.clear();
    decoded.clear();
    decode_buf.clear();
    bool self_closing = false;
    while (true) {
      p = SkipSpace(in, p, size);
      if (p >= size) return Fail(input, p, "truncated start tag");
      if (in[p] == '>') {
        ++p;
        break;
      }
      if (in[p] == '/') {
        if (p + 1 >= size || in[p + 1] != '>') {
          return Fail(input, p, "malformed empty-element tag");
        }
        self_closing = true;
        p += 2;
        break;
      }
      if (!IsNameStartByte(in[p])) return Fail(input, p, "malformed attribute");
      const size_t an_start = p;
      p = ScanName(in, p + 1, size);
      const std::string_view attr_name(in + an_start, p - an_start);
      p = SkipSpace(in, p, size);
      if (p >= size || in[p] != '=') {
        return Fail(input, p, "attribute without value");
      }
      p = SkipSpace(in, p + 1, size);
      if (p >= size || (in[p] != '"' && in[p] != '\'')) {
        return Fail(input, p, "unquoted attribute value");
      }
      const char quote = in[p];
      const size_t v_start = p + 1;
      const size_t v_end = std::min(input.find(quote, v_start), size);
      const std::string_view raw_value(in + v_start, v_end - v_start);
      const size_t lt = raw_value.find('<');
      if (lt != std::string_view::npos) {
        return Fail(input, v_start + lt, "'<' in attribute value");
      }
      if (v_end >= size) {
        return Fail(input, size, "unterminated attribute value");
      }
      p = v_end + 1;
      if (raw_value.find('&') == std::string_view::npos) {
        attrs.push_back(SaxAttribute{attr_name, raw_value});
        continue;
      }
      const size_t off = decode_buf.size();
      if (!AppendDecoded(raw_value, decode_buf)) {
        return Fail(input, p, "malformed entity in attribute");
      }
      decoded.push_back(DecodedSpan{attrs.size(), off});
      attrs.push_back(SaxAttribute{attr_name, {}});
    }
    for (size_t i = 0; i < decoded.size(); ++i) {
      const size_t off = decoded[i].offset;
      const size_t end =
          i + 1 < decoded.size() ? decoded[i + 1].offset : decode_buf.size();
      attrs[decoded[i].attr].value =
          std::string_view(decode_buf).substr(off, end - off);
    }

    if (open.empty()) {
      if (root_opened) {
        return Fail(input, pos, "content after the document element");
      }
      root_opened = true;
    }
    XMARK_RETURN_IF_ERROR(handler->OnStartElement(name, attrs));
    if (self_closing) {
      XMARK_RETURN_IF_ERROR(handler->OnEndElement(name));
    } else {
      open.push_back(name);
    }
    pos = p;
  }

  if (!open.empty() && !fragment.allow_open_end) {
    return Fail(input, size,
                "unclosed element <" + std::string(open.back()) + ">");
  }
  return Status::OK();
}

}  // namespace xmark::xml
