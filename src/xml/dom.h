#ifndef XMARK_XML_DOM_H_
#define XMARK_XML_DOM_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/names.h"
#include "xml/sax_parser.h"

namespace xmark {
class ThreadPool;
}

namespace xmark::xml {

/// Dense node identifier. Nodes are stored in document (preorder) order, so
/// comparing two NodeIds compares document order — this is what makes the
/// BEFORE predicate of query Q4 cheap on the native stores.
using NodeId = uint32_t;

inline constexpr NodeId kInvalidNode = 0xffffffffu;

enum class NodeKind : uint8_t { kElement, kText };

/// One attribute instance attached to an element.
struct DomAttribute {
  NameId name;
  std::string_view value;
};

/// Stored form of an attribute: its name and the span of its value in the
/// document's character heap.
struct AttributeRow {
  NameId name;
  uint32_t offset;
  uint32_t length;
};

/// Read-only view over the attributes of one element, in document order.
/// Iteration yields DomAttribute values resolved against the heap.
class AttributeRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = DomAttribute;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = DomAttribute;

    iterator() = default;
    iterator(const AttributeRow* row, const char* heap)
        : row_(row), heap_(heap) {}
    DomAttribute operator*() const {
      return {row_->name, std::string_view(heap_ + row_->offset, row_->length)};
    }
    iterator& operator++() {
      ++row_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++row_;
      return old;
    }
    bool operator==(const iterator& o) const { return row_ == o.row_; }
    bool operator!=(const iterator& o) const { return row_ != o.row_; }

   private:
    const AttributeRow* row_ = nullptr;
    const char* heap_ = nullptr;
  };

  AttributeRange(const AttributeRow* begin, const AttributeRow* end,
                 const char* heap)
      : begin_(begin), end_(end), heap_(heap) {}
  iterator begin() const { return iterator(begin_, heap_); }
  iterator end() const { return iterator(end_, heap_); }

 private:
  const AttributeRow* begin_;
  const AttributeRow* end_;
  const char* heap_;
};

/// Options for Document::Parse. When `pool` has more than one worker the
/// document is parsed by the chunked parallel pipeline: a sequential
/// structural pre-scan splits the text at safe element boundaries, the
/// chunks are SAX-parsed concurrently into chunk-local documents, and
/// those are stitched back in document order. The result is identical to
/// the serial parse — same preorder NodeIds, same NameId assignment (name
/// tables merge in chunk order, reproducing global first-occurrence
/// order), same columns and heap bytes — for any worker count.
struct ParseOptions {
  bool keep_whitespace = false;
  ThreadPool* pool = nullptr;  // nullptr (or 1 worker): serial parse
};

/// Read-only in-memory XML document in columnar preorder form. Five dense
/// 4-byte columns are indexed by NodeId: tag (kInvalidName marks a text
/// node), parent, subtree end, first attribute row and first heap byte;
/// the last two carry one closing entry, so attribute counts and text
/// lengths are differences of neighbours. Attribute rows hold a name and a
/// heap span, and a single character heap holds every attribute value and
/// every text node in document order. First child, next sibling and
/// subtree end are O(1) column reads. This is the common substrate under
/// the native engines (systems D-G); the relational mappings adopt its
/// heap and name table and shred the columns into their own tables.
class Document {
 public:
  Document();

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  /// Parses `input` into a document. Whitespace-only text nodes are dropped
  /// unless `keep_whitespace` is true.
  static StatusOr<Document> Parse(std::string_view input,
                                  bool keep_whitespace = false);
  /// Parallel-capable overload; see ParseOptions.
  static StatusOr<Document> Parse(std::string_view input,
                                  const ParseOptions& options);
  static StatusOr<Document> ParseFile(const std::string& path,
                                      bool keep_whitespace = false);

  /// The document element; kInvalidNode for an empty document.
  NodeId root() const { return tag_.empty() ? kInvalidNode : 0; }

  size_t num_nodes() const { return tag_.size(); }
  size_t num_attributes() const { return attrs_.size(); }

  NodeKind kind(NodeId n) const {
    return IsElement(n) ? NodeKind::kElement : NodeKind::kText;
  }
  bool IsElement(NodeId n) const { return tag_[n] != kInvalidName; }

  /// Tag id of an element; kInvalidName for text nodes.
  NameId name(NodeId n) const { return tag_[n]; }
  const std::string& tag(NodeId n) const { return names_.Spelling(tag_[n]); }

  NodeId parent(NodeId n) const { return parent_[n]; }
  NodeId first_child(NodeId n) const {
    return n + 1 < subtree_end_[n] ? n + 1 : kInvalidNode;
  }
  NodeId next_sibling(NodeId n) const {
    const NodeId p = parent_[n];
    const NodeId after = subtree_end_[n];
    return p != kInvalidNode && after < subtree_end_[p] ? after
                                                        : kInvalidNode;
  }

  /// Text content of a text node (empty view for elements).
  std::string_view text(NodeId n) const {
    if (IsElement(n)) return {};
    return std::string_view(heap_.data() + heap_begin_[n],
                            heap_begin_[n + 1] - heap_begin_[n]);
  }

  /// Attributes of element `n`, in document order.
  AttributeRange attributes(NodeId n) const {
    return AttributeRange(attrs_.data() + attr_begin_[n],
                          attrs_.data() + attr_begin_[n + 1], heap_.data());
  }
  size_t attribute_count(NodeId n) const {
    return attr_begin_[n + 1] - attr_begin_[n];
  }

  /// Value of attribute `attr` on `n`, or nullopt when absent.
  std::optional<std::string_view> attribute(NodeId n, NameId attr) const;
  std::optional<std::string_view> attribute(NodeId n,
                                            std::string_view attr) const;

  /// XPath string-value: the concatenation of all descendant text.
  std::string StringValue(NodeId n) const;

  /// One-past-the-last preorder id in the subtree rooted at `n`. Subtree
  /// membership is the half-open id range [n, SubtreeEnd(n)).
  NodeId SubtreeEnd(NodeId n) const { return subtree_end_[n]; }

  /// Depth of `n` (root is 0).
  int Depth(NodeId n) const;

  const NameTable& names() const { return names_; }
  NameTable& mutable_names() { return names_; }

  // --- Column access for the mappings that shred this document ----------

  /// First heap byte of `n`'s characters: its attribute values for an
  /// element, its text for a text node; heap_offset(n + 1) ends them
  /// (n == num_nodes() is the closing entry, the heap size).
  uint32_t heap_offset(NodeId n) const { return heap_begin_[n]; }
  /// First attribute row of `n`; rows [attribute_begin(n),
  /// attribute_begin(n + 1)) belong to it (n == num_nodes() closes).
  uint32_t attribute_begin(NodeId n) const { return attr_begin_[n]; }
  const AttributeRow& attribute_row(size_t i) const { return attrs_[i]; }

  /// Moves the character heap (and the name table) out. Afterwards
  /// text(), attribute values and StringValue() (respectively tag() and
  /// name lookups) are no longer valid; the columns stay readable.
  std::string ReleaseHeap() { return std::move(heap_); }
  NameTable ReleaseNames() { return std::move(names_); }

  /// Bytes held by this document (columns + attribute rows + heap);
  /// reported as "database size" for the native engines.
  size_t MemoryBytes() const;

 private:
  friend class DomBuilder;
  friend class ParallelDomParser;

  // Reserves every column and the heap from the input size (the heap can
  // never exceed it); ShrinkToFit releases the slack once the parse ends.
  void Reserve(size_t input_bytes);
  void ShrinkToFit();

  std::vector<NameId> tag_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> subtree_end_;
  std::vector<uint32_t> attr_begin_;  // num_nodes() + 1 entries
  std::vector<uint32_t> heap_begin_;  // num_nodes() + 1 entries
  std::vector<AttributeRow> attrs_;
  std::string heap_;
  NameTable names_;
};

/// SAX handler that appends to a Document's columns. `open_levels`
/// elements opened before the input starts (a chunk of the parallel parse)
/// are represented on the stack by markers kOpenBase + level: nodes they
/// parent record the marker, and where each one closes is reported in
/// open_end(); Document::Parse uses none.
class DomBuilder : public SaxHandler {
 public:
  static constexpr NodeId kOpenBase = 0x80000000u;

  explicit DomBuilder(Document* doc, bool keep_whitespace = false,
                      size_t open_levels = 0);

  Status OnStartElement(std::string_view name,
                        const std::vector<SaxAttribute>& attributes) override;
  Status OnEndElement(std::string_view name) override;
  Status OnCharacters(std::string_view text) override;

  /// Element stack at the end of the input, outermost first: markers of
  /// outer elements still open, then local ids of elements still open.
  const std::vector<NodeId>& stack() const { return stack_; }
  /// Node count at which outer level `d` closed; kInvalidNode while open.
  const std::vector<NodeId>& open_end() const { return open_end_; }

 private:
  NodeId Append(NameId tag);

  Document* doc_;
  bool keep_whitespace_;
  std::vector<NodeId> stack_;
  std::vector<NodeId> open_end_;
};

}  // namespace xmark::xml

#endif  // XMARK_XML_DOM_H_
