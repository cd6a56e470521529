#include "xml/dom.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace xmark::xml {

Document::Document() : attr_begin_{0}, heap_begin_{0} {}

StatusOr<Document> Document::Parse(std::string_view input,
                                   bool keep_whitespace) {
  Document doc;
  doc.Reserve(input.size());
  DomBuilder builder(&doc, keep_whitespace);
  SaxParser parser;
  XMARK_RETURN_IF_ERROR(parser.Parse(input, &builder));
  if (doc.tag_.empty()) {
    return Status::ParseError("document has no element");
  }
  doc.ShrinkToFit();
  return doc;
}

StatusOr<Document> Document::ParseFile(const std::string& path,
                                       bool keep_whitespace) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parse(buf.str(), keep_whitespace);
}

void Document::Reserve(size_t input_bytes) {
  // XMark spends ~35 input bytes per node and ~400 per attribute; the
  // estimates lean high so a typical document never regrows a column.
  const size_t nodes = input_bytes / 32 + 1;
  tag_.reserve(nodes);
  parent_.reserve(nodes);
  subtree_end_.reserve(nodes);
  attr_begin_.reserve(nodes + 1);
  heap_begin_.reserve(nodes + 1);
  attrs_.reserve(input_bytes / 256 + 1);
  heap_.reserve(input_bytes);
}

namespace {

// An exact-size copy as one memmove: shrink_to_fit would copy entry by
// entry, as the column's allocator is not std::allocator.
template <typename T>
void ShrinkColumn(Column<T>* column) {
  Column<T> exact(column->size());
  std::copy(column->begin(), column->end(), exact.begin());
  column->swap(exact);
}

}  // namespace

void Document::ShrinkToFit() {
  ShrinkColumn(&tag_);
  ShrinkColumn(&parent_);
  ShrinkColumn(&subtree_end_);
  ShrinkColumn(&attr_begin_);
  ShrinkColumn(&heap_begin_);
  ShrinkColumn(&attrs_);
  heap_.shrink_to_fit();
}

std::optional<std::string_view> Document::attribute(NodeId n,
                                                    NameId attr) const {
  for (const DomAttribute& a : attributes(n)) {
    if (a.name == attr) return a.value;
  }
  return std::nullopt;
}

std::optional<std::string_view> Document::attribute(
    NodeId n, std::string_view attr) const {
  const NameId id = names_.Lookup(attr);
  if (id == kInvalidName) return std::nullopt;
  return attribute(n, id);
}

std::string Document::StringValue(NodeId n) const {
  std::string out;
  const NodeId end = subtree_end_[n];
  for (NodeId i = n; i < end; ++i) out.append(text(i));
  return out;
}

int Document::Depth(NodeId n) const {
  int depth = 0;
  for (NodeId cur = parent_[n]; cur != kInvalidNode; cur = parent_[cur]) {
    ++depth;
  }
  return depth;
}

size_t Document::MemoryBytes() const {
  return (tag_.capacity() + parent_.capacity() + subtree_end_.capacity() +
          attr_begin_.capacity() + heap_begin_.capacity()) *
             sizeof(uint32_t) +
         attrs_.capacity() * sizeof(AttributeRow) + heap_.capacity();
}

DomBuilder::DomBuilder(Document* doc, bool keep_whitespace, bool inside)
    : doc_(doc), keep_whitespace_(keep_whitespace) {
  stack_.reserve(16);
  if (inside) stack_.push_back(kOpenBase);
}

NodeId DomBuilder::Append(NameId tag) {
  Document& d = *doc_;
  const NodeId id = static_cast<NodeId>(d.tag_.size());
  d.tag_.push_back(tag);
  d.parent_.push_back(stack_.empty() ? kInvalidNode : stack_.back());
  d.subtree_end_.push_back(tag == kInvalidName ? id + 1 : kInvalidNode);
  // The closing entries so far are this node's first row and byte.
  const uint32_t first_row = d.attr_begin_.back();
  const uint32_t first_byte = d.heap_begin_.back();
  d.attr_begin_.push_back(first_row);
  d.heap_begin_.push_back(first_byte);
  return id;
}

Status DomBuilder::OnStartElement(std::string_view name,
                                  const std::vector<SaxAttribute>& attributes) {
  Document& d = *doc_;
  const NodeId id = Append(d.names_.Intern(name));
  for (const SaxAttribute& a : attributes) {
    d.attrs_.push_back(AttributeRow{d.names_.Intern(a.name),
                                    static_cast<uint32_t>(d.heap_.size()),
                                    static_cast<uint32_t>(a.value.size())});
    d.heap_.append(a.value);
  }
  d.attr_begin_.back() = static_cast<uint32_t>(d.attrs_.size());
  d.heap_begin_.back() = static_cast<uint32_t>(d.heap_.size());
  stack_.push_back(id);
  return Status::OK();
}

Status DomBuilder::OnEndElement(std::string_view name) {
  if (stack_.empty()) return Status::ParseError("unbalanced end element");
  const NodeId top = stack_.back();
  const NodeId end = static_cast<NodeId>(doc_->tag_.size());
  if (top >= kOpenBase) {
    // Closes the enclosing element; later top-level nodes are the next
    // one's children.
    outer_ends_.push_back(OuterEnd{std::string(name), end});
    ++stack_.back();
    return Status::OK();
  }
  doc_->subtree_end_[top] = end;
  stack_.pop_back();
  return Status::OK();
}

Status DomBuilder::OnCharacters(std::string_view text) {
  if (stack_.empty()) return Status::OK();
  if (!keep_whitespace_ && TrimWhitespace(text).empty()) return Status::OK();
  Document& d = *doc_;
  // Adjacent text (e.g., around entity references) extends the last node
  // when that is a text child of the open element: its characters end the
  // heap, so merging is an append.
  const bool merge = !d.tag_.empty() && d.tag_.back() == kInvalidName &&
                     d.parent_.back() == stack_.back();
  if (!merge) Append(kInvalidName);
  d.heap_.append(text);
  d.heap_begin_.back() = static_cast<uint32_t>(d.heap_.size());
  return Status::OK();
}

}  // namespace xmark::xml
