#ifndef XMARK_STORE_FRAGMENTED_STORE_H_
#define XMARK_STORE_FRAGMENTED_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/storage.h"
#include "store/load_options.h"
#include "util/status.h"
#include "xml/names.h"

namespace xmark::store {

/// Highly fragmenting relational mapping — the architecture of the paper's
/// System B: one table per distinct root-to-node tag path (the classic
/// path-shredding schemes). Each path table holds
///
///   row(id, parent, subtree_end, text)      clustered on id (preorder)
///
/// Because a path determines its depth, the id-interval of a node's subtree
/// sliced out of a child-path table is exactly its child set — so
/// tag-specific child and descendant steps are two binary searches. A
/// string value merges the slices of only the #text tables under the
/// node's path (the "sorted outer union" of Shanmugasundaram et al.,
/// VLDB 2000). The price of fragmentation: the unfiltered and element-only
/// scans (kAll, kElements), and with them the serialization walk, find
/// each first child and next sibling by merging across all child tables
/// of a node (slow — the paper's B pays heavily on construction-dominated
/// Q10 and Q13), and the catalog has one entry per path, making name
/// resolution during query compilation a catalog scan (Table 2: B spends
/// twice as much of its time compiling as A). That merging walk is private
/// to this store, behind its own cursors.
class FragmentedStore final : public query::StorageAdapter {
 public:
  /// Bulkloads the document: parse, a sequential path-discovery pass, then
  /// the per-path table and attribute fills (adopting the document's
  /// heap). More than one thread runs the parse, fills and sorts as
  /// ForkJoins on the shared pool, with byte-identical results.
  static StatusOr<std::unique_ptr<FragmentedStore>> Load(
      std::string_view xml, const LoadOptions& options = {});

  /// Canonical serialization of every internal structure, for the
  /// bulkload determinism test.
  void DumpState(std::string* out) const override;

  std::string_view mapping_name() const override {
    return "fragmented path tables";
  }
  const xml::NameTable& names() const override { return names_; }
  query::NodeHandle Root() const override { return root_; }
  xml::NameId NameOf(query::NodeHandle n) const override;
  query::NodeHandle Parent(query::NodeHandle n) const override;
  std::string_view TextView(query::NodeHandle n) const override;
  void ForEachAttribute(query::NodeHandle n,
                        query::AttributeVisitor visit) const override;
  // Tag- and text-filtered scans are direct path-table slices; kAll and
  // kElements scans walk the (merging) sibling chain (SiblingWalk).
  void OpenChildCursor(query::NodeHandle parent, query::ChildFilter filter,
                       xml::NameId tag,
                       query::ChildCursor* cur) const override;
  size_t AdvanceChildCursor(query::ChildCursor* cur, query::NodeHandle* out,
                            size_t cap) const override;
  // Tag/text-filtered descendant scans slice the subtree interval out of
  // the candidate path tables (CandidatePaths: one slice when a single
  // path qualifies, a document-order merge across slices otherwise);
  // kAll and kElements scans walk the subtree in preorder (PreorderWalk).
  void OpenDescendantCursor(query::NodeHandle base, query::ChildFilter filter,
                            xml::NameId tag,
                            query::DescendantCursor* cur) const override;
  size_t AdvanceDescendantCursor(query::DescendantCursor* cur,
                                 query::NodeHandle* out,
                                 size_t cap) const override;
  // The path tables ARE the path index.
  query::StorageCapabilities Capabilities() const override {
    return {.id_lookup = true, .path_index = true};
  }
  query::NodeHandle NodeById(std::string_view id) const override;
  std::optional<std::vector<query::NodeHandle>> PathExtent(
      const std::vector<xml::NameId>& path) const override;

  size_t ResolveName(std::string_view name) const override;

  size_t StorageBytes() const override;
  size_t CatalogEntries() const override { return paths_.size(); }
  size_t NodeCount() const override { return path_of_.size(); }

  size_t num_paths() const { return paths_.size(); }

 private:
  struct Row {
    uint32_t id;
    uint32_t parent;
    uint32_t subtree_end;  // one past the last preorder id in the subtree
    uint32_t text_begin;
    uint32_t text_len;
  };
  struct PathInfo {
    uint32_t parent_path = 0;
    xml::NameId tag = xml::kInvalidName;  // #text paths get the sentinel
    int depth = 0;
    std::vector<uint32_t> child_paths;
    std::vector<Row> rows;  // clustered on id
  };

  FragmentedStore() = default;

  const Row& RowOf(query::NodeHandle n) const {
    return paths_[path_of_[n]].rows[idx_in_path_[n]];
  }
  // Rows of path `p` with id in [lo, hi) — a subtree slice.
  std::pair<size_t, size_t> Slice(const PathInfo& p, uint32_t lo,
                                  uint32_t hi) const;
  bool PathExtends(uint32_t candidate, uint32_t base) const;
  // Writes to `out`, up to `cap`, the path tables a kTag (`want` = the
  // tag) or kText (`want` = text_tag_) descendant scan below a node of
  // path `base_path` reads, and returns their count: the tag's paths that
  // extend base_path, or the #text tables in the path subtree under it.
  size_t CandidatePaths(xml::NameId want, uint32_t base_path, uint32_t* out,
                        size_t cap) const;

  // The generic navigation behind the kAll/kElements cursors. Each call
  // merges across every child path table of a node: the child (or the
  // sibling after n's subtree) with the smallest id.
  query::NodeHandle FirstChild(query::NodeHandle n) const;
  query::NodeHandle NextSibling(query::NodeHandle n) const;
  // The kAll/kElements child scan: a walk along the sibling chain from
  // cur->u0 (the next child to test).
  size_t SiblingWalk(query::ChildCursor* cur, query::NodeHandle* out,
                     size_t cap) const;
  // The kAll/kElements descendant scan: a stack-free preorder walk of the
  // subtree from cur->u0 (the next node to test) over the first-child,
  // next-sibling and parent links.
  size_t PreorderWalk(query::DescendantCursor* cur, query::NodeHandle* out,
                      size_t cap) const;

  std::vector<PathInfo> paths_;  // [0] is the virtual document node
  std::vector<std::string> path_names_;  // "/site/people/person" per path
  std::vector<uint32_t> path_of_;     // id -> path
  std::vector<uint32_t> idx_in_path_; // id -> row index within path table
  std::unordered_map<xml::NameId, std::vector<uint32_t>> paths_by_tag_;
  std::string heap_;
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
  std::vector<std::pair<std::string, uint32_t>> id_value_index_;
  xml::NameTable names_;
  xml::NameId text_tag_ = xml::kInvalidName;  // "#text" sentinel
  query::NodeHandle root_ = query::kInvalidHandle;
};

}  // namespace xmark::store

#endif  // XMARK_STORE_FRAGMENTED_STORE_H_
