#ifndef XMARK_STORE_INLINED_STORE_H_
#define XMARK_STORE_INLINED_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/storage.h"
#include "store/load_options.h"
#include "util/status.h"
#include "util/string_util.h"
#include "xml/dtd.h"
#include "xml/names.h"

namespace xmark::store {

/// DTD-derived inlined relational mapping — the architecture of the
/// paper's System C: "reads in a DTD and lets the user generate an
/// optimized database schema" (in the spirit of Shanmugasundaram et al.).
///
/// Per-tag row groups store structure in dense arrays (O(1) navigation —
/// the payoff of schema-aware physical design), and for every
/// (parent, child) pair the DTD declares as at-most-once, a direct child
/// slot array answers the tag-filtered child cursor in constant time. This
/// is what makes C the best relational executor on the ordered-access
/// queries Q2/Q3 in Table 3. Text of PCDATA-only elements is inlined next
/// to the element row. No tag or path indexes exist: descendant steps scan
/// the dense preorder arrays across the subtree interval (fast, but still
/// proportional to subtree size), which is why C trails D — whose
/// structural summary answers Q6/Q7 without touching the document — there.
class InlinedStore : public query::StorageAdapter {
 public:
  /// Loads the document; `dtd_text` supplies the schema to derive the
  /// mapping from (defaults to the bundled auction DTD). The dense arrays
  /// come from the parsed document's columns, whose heap and name table
  /// the store adopts. More than one thread runs the parse, fills and slot
  /// scans as ForkJoins on the shared pool, with byte-identical results.
  static StatusOr<std::unique_ptr<InlinedStore>> Load(
      std::string_view xml, std::string_view dtd_text = xml::kAuctionDtd,
      const LoadOptions& options = {});

  /// Canonical serialization of every internal structure, for the
  /// bulkload determinism test.
  void DumpState(std::string* out) const override;

  std::string_view mapping_name() const override {
    return "DTD-inlined tables";
  }
  const xml::NameTable& names() const override { return names_; }
  query::NodeHandle Root() const override { return root_; }
  xml::NameId NameOf(query::NodeHandle n) const override { return tag_[n]; }
  query::NodeHandle Parent(query::NodeHandle n) const override {
    return parent_[n];
  }
  std::string_view TextView(query::NodeHandle n) const override;
  void ForEachAttribute(query::NodeHandle n,
                        query::AttributeVisitor visit) const override;
  // A kTag scan of a DTD at-most-once (parent, child) pair reads the
  // pair's slot (a one-shot cursor, u2 == 1); every other scan is a
  // dense-array sibling walk with no virtual dispatch per child.
  void OpenChildCursor(query::NodeHandle parent, query::ChildFilter filter,
                       xml::NameId tag,
                       query::ChildCursor* cur) const override;
  size_t AdvanceChildCursor(query::ChildCursor* cur, query::NodeHandle* out,
                            size_t cap) const override;
  // Ids are preorder, so the descendant set is one query::ScanIdInterval
  // pass over the tag_ array across the subtree interval (computed at open
  // from the sibling/parent links, O(depth)).
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
  size_t CatalogEntries() const override;
  size_t NodeCount() const override { return tag_.size(); }

  /// Number of (parent, child) pairs inlined as direct slots.
  size_t InlinedSlots() const { return slots_.size(); }

 private:
  InlinedStore() = default;

  static uint64_t SlotKey(xml::NameId parent_tag, xml::NameId child_tag) {
    return (static_cast<uint64_t>(parent_tag) << 32) | child_tag;
  }
  // One past the last preorder id of n's subtree.
  query::NodeHandle SubtreeEnd(query::NodeHandle n) const;

  // Dense structure arrays indexed by preorder id.
  std::vector<query::NodeHandle> parent_;
  std::vector<query::NodeHandle> first_child_;
  std::vector<query::NodeHandle> next_sibling_;
  std::vector<xml::NameId> tag_;            // kInvalidName for text nodes
  std::vector<uint32_t> row_of_;            // id -> dense row within tag group
  std::vector<std::pair<uint32_t, uint32_t>> text_span_;  // into heap_
  std::string heap_;

  // Direct child slots for DTD at-most-once (parent, child) pairs:
  // slots_[key][row_of(parent)] = child id or kInvalidHandle.
  std::unordered_map<uint64_t, std::vector<query::NodeHandle>> slots_;
  std::unordered_map<xml::NameId, uint32_t> tag_cardinality_;

  struct AttrRow {
    uint32_t owner;
    xml::NameId name;
    uint32_t value_begin;
    uint32_t value_len;
  };
  std::vector<AttrRow> attrs_;  // sorted by owner
  // id -> first attribute row (attrs_.size() when none): O(1) owner-row
  // location instead of a binary search per probe.
  std::vector<uint32_t> attr_begin_;
  // Transparent hash/eq: NodeById probes with the caller's string_view.
  std::unordered_map<std::string, query::NodeHandle,
                     TransparentStringHash, std::equal_to<>>
      id_index_;
  xml::NameTable names_;
  query::NodeHandle root_ = query::kInvalidHandle;
  size_t dtd_elements_ = 0;
};

}  // namespace xmark::store

#endif  // XMARK_STORE_INLINED_STORE_H_
