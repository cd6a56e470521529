#include "xml/serializer.h"

#include <algorithm>

#include "util/string_util.h"

namespace xmark::xml {
namespace {

void SerializeNode(const Document& doc, NodeId node,
                   const SerializeOptions& options, int depth,
                   std::string& out) {
  if (doc.kind(node) == NodeKind::kText) {
    if (options.indent) out.append(2 * depth, ' ');
    AppendXmlEscaped(out, doc.text(node));
    if (options.indent) out.push_back('\n');
    return;
  }
  if (options.indent) out.append(2 * depth, ' ');
  out.push_back('<');
  out.append(doc.tag(node));
  const AttributeRange range = doc.attributes(node);
  std::vector<DomAttribute> attrs(range.begin(), range.end());
  if (options.canonical) {
    std::sort(attrs.begin(), attrs.end(),
              [&](const DomAttribute& a, const DomAttribute& b) {
                return doc.names().Spelling(a.name) <
                       doc.names().Spelling(b.name);
              });
  }
  for (const DomAttribute& a : attrs) {
    out.push_back(' ');
    out.append(doc.names().Spelling(a.name));
    out.append("=\"");
    AppendXmlEscaped(out, a.value);
    out.push_back('"');
  }
  const NodeId child = doc.first_child(node);
  if (child == kInvalidNode) {
    out.append("/>");
    if (options.indent) out.push_back('\n');
    return;
  }
  // Indentation would change the value of text content, so elements with
  // any text child are serialized inline.
  bool has_text_child = false;
  for (NodeId c = child; c != kInvalidNode; c = doc.next_sibling(c)) {
    if (doc.kind(c) == NodeKind::kText) has_text_child = true;
  }
  if (options.indent && has_text_child) {
    SerializeOptions inline_opts = options;
    inline_opts.indent = false;
    out.push_back('>');
    for (NodeId c = child; c != kInvalidNode; c = doc.next_sibling(c)) {
      SerializeNode(doc, c, inline_opts, depth + 1, out);
    }
    out.append("</");
    out.append(doc.tag(node));
    out.push_back('>');
    out.push_back('\n');
    return;
  }
  out.push_back('>');
  if (options.indent) out.push_back('\n');
  for (NodeId c = child; c != kInvalidNode; c = doc.next_sibling(c)) {
    SerializeNode(doc, c, options, depth + 1, out);
  }
  if (options.indent) out.append(2 * depth, ' ');
  out.append("</");
  out.append(doc.tag(node));
  out.push_back('>');
  if (options.indent) out.push_back('\n');
}

}  // namespace

std::string Serialize(const Document& doc, NodeId node,
                      const SerializeOptions& options) {
  std::string out;
  SerializeNode(doc, node, options, 0, out);
  return out;
}

std::string SerializeDocument(const Document& doc,
                              const SerializeOptions& options) {
  if (doc.root() == kInvalidNode) return "";
  return Serialize(doc, doc.root(), options);
}

}  // namespace xmark::xml
