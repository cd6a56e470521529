#ifndef XMARK_STORE_DOM_STORE_H_
#define XMARK_STORE_DOM_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/storage.h"
#include "store/load_options.h"
#include "util/status.h"
#include "util/string_util.h"
#include "xml/dom.h"

namespace xmark::store {

/// Native main-memory mapping: the document tree itself, optionally
/// augmented with access structures. This is the architecture of the
/// paper's systems D-G:
///   D — full index set (tag index, id index, structural summary);
///   E — id index only;
///   F — bare tree;
///   G — bare tree inside an embedded processor (copy semantics and
///       per-query loading are modeled at the engine layer).
class DomStore : public query::StorageAdapter {
 public:
  struct Options {
    bool build_tag_index = true;
    bool build_id_index = true;
    bool build_path_summary = true;
  };

  /// Parses `xml` and builds the selected indexes. More than one thread
  /// parses in parallel and builds the tag/id/summary indexes as one
  /// ForkJoin on the shared pool, with byte-identical results.
  static StatusOr<std::unique_ptr<DomStore>> Load(
      std::string_view xml, const Options& options,
      const LoadOptions& load_options = {});

  /// Canonical serialization of the document and every index, for the
  /// bulkload determinism test.
  void DumpState(std::string* out) const override;

  // StorageAdapter:
  std::string_view mapping_name() const override { return "native DOM"; }
  const xml::NameTable& names() const override { return doc_.names(); }
  query::NodeHandle Root() const override { return doc_.root(); }
  xml::NameId NameOf(query::NodeHandle n) const override {
    return doc_.name(static_cast<xml::NodeId>(n));
  }
  query::NodeHandle Parent(query::NodeHandle n) const override {
    return AsHandle(doc_.parent(static_cast<xml::NodeId>(n)));
  }
  std::string_view TextView(query::NodeHandle n) const override {
    return doc_.text(static_cast<xml::NodeId>(n));
  }
  void ForEachAttribute(query::NodeHandle n,
                        query::AttributeVisitor visit) const override;
  // Sibling walk over the document's subtree-end column: one 4-byte read
  // per hop, bounded by the parent's subtree end.
  void OpenChildCursor(query::NodeHandle parent, query::ChildFilter filter,
                       xml::NameId tag,
                       query::ChildCursor* cur) const override;
  size_t AdvanceChildCursor(query::ChildCursor* cur, query::NodeHandle* out,
                            size_t cap) const override;
  // Preorder ids make the subtree the id interval (n, SubtreeEnd(n)): a
  // tag-filtered scan slices the tag index when one was built, otherwise it
  // streams the document's name column across that interval
  // (query::ScanIdInterval).
  void OpenDescendantCursor(query::NodeHandle base, query::ChildFilter filter,
                            xml::NameId tag,
                            query::DescendantCursor* cur) const override;
  size_t AdvanceDescendantCursor(query::DescendantCursor* cur,
                                 query::NodeHandle* out,
                                 size_t cap) const override;
  query::StorageCapabilities Capabilities() const override {
    return {.id_lookup = options_.build_id_index,
            .path_index = options_.build_path_summary};
  }
  query::NodeHandle NodeById(std::string_view id) const override;

  /// All elements with a given tag, in document order; null when the tag
  /// index is off or the tag is absent.
  const std::vector<query::NodeHandle>* NodesByTag(xml::NameId tag) const;
  std::optional<std::vector<query::NodeHandle>> PathExtent(
      const std::vector<xml::NameId>& path) const override;

  size_t StorageBytes() const override;
  size_t CatalogEntries() const override;
  size_t NodeCount() const override { return doc_.num_nodes(); }

  /// Number of distinct root-to-node tag paths (DataGuide size).
  size_t SummaryPaths() const { return summary_.size(); }

  const xml::Document& document() const { return doc_; }

 private:
  // Structural summary (strong DataGuide): one entry per distinct
  // root-to-node tag path, with its extent in document order.
  struct SummaryNode {
    xml::NameId tag = xml::kInvalidName;
    std::unordered_map<xml::NameId, size_t> children;
    std::vector<query::NodeHandle> extent;
  };

  explicit DomStore(xml::Document doc, const Options& options)
      : doc_(std::move(doc)), options_(options) {}

  static query::NodeHandle AsHandle(xml::NodeId id) {
    return id == xml::kInvalidNode ? query::kInvalidHandle
                                   : static_cast<query::NodeHandle>(id);
  }

  // Builds the selected indexes, at most `threads` wide.
  void BuildIndexes(unsigned threads);
  void BuildSummary();

  xml::Document doc_;
  Options options_;
  std::unordered_map<xml::NameId, std::vector<query::NodeHandle>> tag_index_;
  // Transparent hash/eq: NodeById probes with the caller's string_view.
  std::unordered_map<std::string, query::NodeHandle, TransparentStringHash,
                     std::equal_to<>>
      id_index_;
  std::vector<SummaryNode> summary_;  // [0] is the root path
};

}  // namespace xmark::store

#endif  // XMARK_STORE_DOM_STORE_H_
