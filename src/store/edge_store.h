#ifndef XMARK_STORE_EDGE_STORE_H_
#define XMARK_STORE_EDGE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "query/storage.h"
#include "store/load_options.h"
#include "util/status.h"
#include "xml/names.h"

namespace xmark::store {

/// Monolithic relational mapping — the architecture of the paper's System
/// A: "basically stores all XML data on one big heap, i.e., only a single
/// relation". The document is shredded into one edge relation
///
///   edge(id, parent, ord, tag, text)     clustered on (parent, ord)
///
/// plus an attribute relation attr(owner, name, value) and a value index
/// on the ID attribute. Navigation is binary search over the clustered
/// relation with string materialization from a heap — every child step
/// costs a B-tree-style probe, which is exactly why this mapping pays more
/// per data access than the schema-aware mappings (Table 2's execution
/// percentages). The tiny catalog (two relations) is why it compiles
/// queries cheaply.
class EdgeStore : public query::StorageAdapter {
 public:
  /// Bulkloads the document: parse, then shred the document's columns
  /// into the two relations (adopting its heap and name table), each edge
  /// row written straight to its clustered position, and index. More than
  /// one thread runs the parse, fills, sorts and index builds as ForkJoins
  /// on the shared pool, with byte-identical results (see LoadOptions).
  static StatusOr<std::unique_ptr<EdgeStore>> Load(
      std::string_view xml, const LoadOptions& options = {});

  /// Canonical serialization of every internal structure, for the
  /// bulkload determinism test (threads=1 vs threads=N byte equality).
  void DumpState(std::string* out) const override;

  std::string_view mapping_name() const override { return "edge table"; }
  const xml::NameTable& names() const override { return names_; }
  query::NodeHandle Root() const override { return root_; }
  xml::NameId NameOf(query::NodeHandle n) const override;
  query::NodeHandle Parent(query::NodeHandle n) const override;
  std::string_view TextView(query::NodeHandle n) const override;
  void ForEachAttribute(query::NodeHandle n,
                        query::AttributeVisitor visit) const override;
  // One binary search over the (parent, ord)-clustered relation, then a
  // linear row scan — the cursor never touches the PK index.
  void OpenChildCursor(query::NodeHandle parent, query::ChildFilter filter,
                       xml::NameId tag,
                       query::ChildCursor* cur) const override;
  size_t AdvanceChildCursor(query::ChildCursor* cur, query::NodeHandle* out,
                            size_t cap) const override;
  // Ids are preorder, so the subtree of n is the id interval
  // (n, subtree_end_[n]): the descendant scan is one pass of
  // query::ScanIdInterval over the dense id->tag projection instead of a
  // DFS of per-element child probes.
  void OpenDescendantCursor(query::NodeHandle base, query::ChildFilter filter,
                            xml::NameId tag,
                            query::DescendantCursor* cur) const override;
  size_t AdvanceDescendantCursor(query::DescendantCursor* cur,
                                 query::NodeHandle* out,
                                 size_t cap) const override;
  query::StorageCapabilities Capabilities() const override {
    return {.id_lookup = true, .path_index = false};
  }
  query::NodeHandle NodeById(std::string_view id) const override;

  size_t StorageBytes() const override;
  size_t CatalogEntries() const override { return 2; }  // edge + attr
  size_t NodeCount() const override { return rows_.size(); }

  size_t num_rows() const { return rows_.size(); }

 private:
  struct EdgeRow {
    uint32_t id;
    uint32_t parent;      // kNoParent for the root
    uint32_t ord;         // position among siblings
    xml::NameId tag;      // kInvalidName for text rows
    uint32_t text_begin;  // into heap_
    uint32_t text_len;
  };
  struct AttrRow {
    uint32_t owner;
    xml::NameId name;
    uint32_t value_begin;
    uint32_t value_len;
  };

  static constexpr uint32_t kNoParent = 0xffffffffu;

  EdgeStore() = default;

  const EdgeRow& RowOf(query::NodeHandle n) const {
    return rows_[pos_of_id_[n]];
  }
  std::string_view HeapString(uint32_t begin, uint32_t len) const {
    return std::string_view(heap_).substr(begin, len);
  }

  std::vector<EdgeRow> rows_;       // clustered on (parent, ord)
  std::vector<uint32_t> pos_of_id_; // id -> row position (PK index)
  // id -> position of its first child row in the clustered relation
  // (rows_.size() for leaves). Gives cursors O(1) positioning; bulkload
  // builds it as the prefix sum of the child counts and places each row
  // at child_begin_[parent] + ord.
  std::vector<uint32_t> child_begin_;
  // id -> one past the last preorder id in its subtree; descendant scans
  // walk the id interval (n, subtree_end_[n]) directly.
  std::vector<uint32_t> subtree_end_;
  // id -> tag (kInvalidName for text rows): the dense preorder projection
  // descendant cursors scan without going through RowOf's PK indirection.
  std::vector<xml::NameId> tag_by_id_;
  std::vector<AttrRow> attrs_;      // sorted by owner
  // id -> position of its first attribute row (attrs_.size() when none):
  // O(1) owner-row location instead of a binary search per probe.
  std::vector<uint32_t> attr_begin_;
  std::string heap_;
  std::vector<std::pair<std::string, uint32_t>> id_value_index_;  // sorted
  xml::NameTable names_;
  query::NodeHandle root_ = query::kInvalidHandle;
};

}  // namespace xmark::store

#endif  // XMARK_STORE_EDGE_STORE_H_
