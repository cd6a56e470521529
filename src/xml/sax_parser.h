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

/// Streaming, non-validating XML parser in the spirit of expat: it
/// tokenizes the input, decodes the five predefined entities and numeric
/// character references, checks well-formedness (tag balance), and reports
/// events to a SaxHandler. Namespaces, external entities and notations are
/// out of scope, matching the XML subset the benchmark document uses
/// (paper §4.4).
/// Context for parsing a fragment cut out of a larger document: the
/// elements already open where the fragment starts (outermost first), and
/// whether the fragment may legitimately end with elements still open.
/// This is what lets the parallel bulkload pipeline hand disjoint byte
/// ranges of one document to concurrent parsers. The fragment is inside its
/// document element, so a start tag after `open_tags` have closed is a
/// second document element.
struct SaxFragment {
  std::vector<std::string> open_tags;
  bool allow_open_end = false;
};

class SaxParser {
 public:
  /// Parses `input` to completion, invoking `handler`. Returns the first
  /// error (from the document or from the handler).
  Status Parse(std::string_view input, SaxHandler* handler);

  /// Parses a fragment of a document under the given context: end tags may
  /// close `fragment.open_tags`, and (when `allow_open_end`) the fragment
  /// may stop with elements still open.
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
