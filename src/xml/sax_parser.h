#ifndef XMARK_XML_SAX_PARSER_H_
#define XMARK_XML_SAX_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace xmark::xml {

/// One attribute as seen by the SAX layer; `value` is entity-decoded.
struct SaxAttribute {
  std::string_view name;
  std::string_view value;
};

/// Event receiver for SaxParser. Every view passed to a callback (names,
/// attribute names and values, text) is valid until that callback returns:
/// it points into the input or, for entity-decoded text and attribute
/// values, into a scratch buffer that the next event reuses. Handlers that
/// keep data must copy it (the DOM builder copies into its arena).
class SaxHandler {
 public:
  virtual ~SaxHandler() = default;

  virtual Status OnStartElement(std::string_view name,
                                const std::vector<SaxAttribute>& attributes) = 0;
  virtual Status OnEndElement(std::string_view name) = 0;
  /// Character data between tags, entity-decoded. Whitespace-only runs are
  /// still reported; the builder decides whether to keep them.
  virtual Status OnCharacters(std::string_view text) = 0;
  virtual Status OnComment(std::string_view /*text*/) { return Status::OK(); }
  virtual Status OnProcessingInstruction(std::string_view /*target*/,
                                         std::string_view /*data*/) {
    return Status::OK();
  }
};

/// Context for parsing a fragment cut out of a larger document. A fragment
/// `inside` its document element starts at a depth it does not know (the
/// parallel parse cuts every chunk after the first at a start tag): an end
/// tag that closes none of the fragment's own elements reaches the handler
/// unchecked, since matching it to an element opened before the fragment
/// is the handler's job, and the fragment never reaches document level.
/// At its top level it cannot tell inside the document element from after
/// it, so it fails on what a DOM builder would drop there but the serial
/// parse rejects after the root: CDATA, and character data that is not
/// whitespace but decodes to whitespace only (e.g. "&#32;").
/// `allow_open_end` lets a fragment stop with its own elements still open.
struct SaxFragment {
  bool inside = false;
  bool allow_open_end = false;
};

/// Streaming, non-validating XML parser in the spirit of expat: it
/// tokenizes the input, decodes the five predefined entities and numeric
/// character references, checks well-formedness (tag balance), and reports
/// events to a SaxHandler. Namespaces, external entities and notations are
/// out of scope, matching the XML subset the benchmark document uses
/// (paper §4.4).
class SaxParser {
 public:
  /// Parses `input` to completion, invoking `handler`. Returns the first
  /// error (from the document or from the handler).
  Status Parse(std::string_view input, SaxHandler* handler);

  /// Parses a fragment of a document under the given context (see
  /// SaxFragment).
  Status ParseFragment(std::string_view input, SaxHandler* handler,
                       const SaxFragment& fragment);

  /// Convenience: reads a file and parses it.
  Status ParseFile(const std::string& path, SaxHandler* handler);

 private:
  Status ParseImpl(std::string_view input, SaxHandler* handler,
                   const SaxFragment& fragment);
};

}  // namespace xmark::xml

#endif  // XMARK_XML_SAX_PARSER_H_
